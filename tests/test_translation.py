"""Translation-distance tests.

Oracles: brute-force half-L1 summation for TV, direct difference sums
for line energies (checked against the spectral autocorrelation),
per-line profiles via `line_profile` below, exact convolutions for the
tail-center and certification walkthroughs, the per-atom dict forms of
the shift difference and the line decomposition and the per-line loop
form of the spectral energy check, which the array versions must match
bit for bit, and a fine midpoint quadrature of each line's tail
integral.
"""

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_oracle import from_atoms, translate
from sketchlab.dgauss import TruncationPolicy
from sketchlab.measure import (
    SparseMeasure,
    convolve_many_fft,
    gamma_truncated,
    reflect,
    restrict,
)
from sketchlab import translation
from sketchlab.spectrum import SketchLattice, StructureConfig
from sketchlab.translation import (
    HeavySpread,
    LineDecomposition,
    ball_reduction_tv_bound,
    convolution_tail_center,
    line_decomposition,
    measured_structure_spread,
    spectral_energy_bound_check,
    translation_invariance_certify,
    tv_distance,
)

STRUCTURE = StructureConfig(K=512.0, Q=2048, q=3, R=8.0, kappa=0.25)


def line_profile(
    nu: SparseMeasure, x: Sequence[int], v: Sequence[int]
) -> dict[int, float]:
    """Masses of nu along the line {x + l v}, keyed by l."""
    xv = tuple(int(c) for c in x)
    vv = tuple(int(c) for c in v)
    if all(c == 0 for c in vv):
        raise ValueError("direction must be nonzero")
    j = next(i for i, c in enumerate(vv) if c != 0)
    out: dict[int, float] = {}
    for p, m in nu.atoms.items():
        d = tuple(a - b for a, b in zip(p, xv))
        if d[j] % vv[j]:
            continue
        l = d[j] // vv[j]
        if all(dc == l * vc for dc, vc in zip(d, vv)):
            out[l] = out.get(l, 0.0) + m
    return out


@functools.cache
def gamma1():
    return gamma_truncated(1, 8.0)


@functools.cache
def gamma2():
    return gamma_truncated(2, 8.0)


@functools.cache
def parity_measure():
    return restrict(gamma2(), lambda x: (x[0] + x[1]) % 2 == 0, renormalize=True)


@functools.cache
def mod3_measure():
    return restrict(gamma2(), lambda x: x[0] % 3 == 0, renormalize=True)


@functools.cache
def parity_conv2():
    return convolve_many_fft([parity_measure()] * 2)


# the structure of the parity pieces, {(0, 0), (1/2, 1/2)}, and the bare origin
W_PARITY = SketchLattice(
    dimension=2,
    generators=((Fraction(1, 2), Fraction(1, 2)),),
    denominators=(2,),
    relations=((),),
    span_error=0.0,
    s_certified=0.0,
)
ORIGIN = SketchLattice(
    dimension=2,
    generators=(),
    denominators=(),
    relations=(),
    span_error=0.0,
    s_certified=0.0,
)


@functools.cache
def parity_report():
    return translation_invariance_certify(
        [parity_measure()] * 4, "exact", STRUCTURE, 2
    )


@functools.cache
def mod3_report():
    return translation_invariance_certify(
        [mod3_measure()] * 4, "exact", STRUCTURE, 3
    )


@functools.cache
def gamma_report(R: float):
    return translation_invariance_certify(
        [gamma_truncated(2, R)] * 8,
        "exact",
        dataclasses.replace(STRUCTURE, R=R),
        1,
        controls=0,
    )


def measures(max_atoms=6, span=5):
    coords = st.integers(-span, span)
    return st.lists(
        st.tuples(st.tuples(coords, coords), st.floats(0.1, 1.0)),
        min_size=1,
        max_size=max_atoms,
        unique_by=lambda t: t[0],
    ).map(
        lambda items: from_atoms(
            2,
            {
                p: w / math.fsum(x[1] for x in items)
                for p, w in items
            },
        )
    )


directions = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda v: any(v)
)


# -- tv_distance ---------------------------------------------------------------


def test_tv_zero_shift():
    assert tv_distance(gamma1(), [0]) == 0.0


def test_tv_point_mass_disjoint():
    point = from_atoms(1, {(0,): 1.0})
    assert tv_distance(point, [5]) == 1.0


def test_tv_gamma_brute_force():
    g = gamma1()
    shifted = {(p[0] + 1,): m for p, m in g.atoms.items()}
    keys = set(g.atoms) | set(shifted)
    brute = 0.5 * math.fsum(
        abs(g.atoms.get(k, 0.0) - shifted.get(k, 0.0)) for k in keys
    )
    assert tv_distance(g, [1]) == pytest.approx(brute, abs=1e-15)


def test_tv_gamma_frozen_value():
    # Unimodal profile: the half-L1 telescopes to the peak mass, and the
    # one-dimensional normalizer at R=8 is 8 to machine precision.
    assert tv_distance(gamma1(), [1]) == pytest.approx(0.125, abs=1e-15)


@settings(deadline=None, max_examples=60)
@given(measures(), directions)
def test_tv_reflection_symmetry(mu, v):
    back = tuple(-c for c in v)
    assert tv_distance(mu, v) == pytest.approx(
        tv_distance(reflect(mu), back), abs=1e-12
    )


@settings(deadline=None, max_examples=60)
@given(measures(), directions)
def test_tv_cauchy_schwarz(mu, v):
    shifted = {tuple(a + b for a, b in zip(p, v)): m for p, m in mu.atoms.items()}
    keys = set(mu.atoms) | set(shifted)
    diffs = [mu.atoms.get(k, 0.0) - shifted.get(k, 0.0) for k in keys]
    support = sum(1 for d in diffs if d != 0.0)
    energy = dict_translation_energy(mu, v)
    assert tv_distance(mu, v) <= 0.5 * math.sqrt(support) * math.sqrt(energy) + 1e-12


def dict_shift_difference(nu, v):
    """Per-atom dict form of the shift difference, kept as the oracle."""
    diff = dict(nu.atoms)
    for p, m in nu.atoms.items():
        q = tuple(a + b for a, b in zip(p, v))
        diff[q] = diff.get(q, 0.0) - m
    return diff


def dict_translation_energy(nu, v):
    """sum_y |nu(y) - nu(y - v)|^2 over the dict shift difference."""
    return math.fsum(d * d for d in dict_shift_difference(nu, v).values())


def measures_nd(max_atoms=12, span=6):
    """Sub-probability measures on Z^n, n in {1, 2, 3}, masses over decades."""

    def build(n):
        coords = st.tuples(*[st.integers(-span, span)] * n)
        weights = st.floats(1e-9, 1.0)
        return st.lists(
            st.tuples(coords, weights),
            min_size=1,
            max_size=max_atoms,
            unique_by=lambda t: t[0],
        ).map(
            lambda items: from_atoms(
                n, {p: w / math.fsum(x[1] for x in items) for p, w in items}
            )
        )

    return st.integers(1, 3).flatmap(build)


def directions_for(n):
    return st.tuples(*[st.integers(-3, 3)] * n).filter(any)


measure_and_direction = measures_nd().flatmap(
    lambda mu: st.tuples(st.just(mu), directions_for(mu.dimension))
)


@settings(deadline=None, max_examples=80)
@given(measure_and_direction)
def test_tv_matches_dict_oracle(case):
    # the TV read off the line decomposition is the same number
    mu, v = case
    diff = dict_shift_difference(mu, v)
    want = 0.5 * math.fsum(abs(d) for d in diff.values())
    assert tv_distance(mu, v) == want
    assert line_decomposition(mu, v).tv == want


# -- line decomposition ----------------------------------------------------------


def test_line_masses_sum_to_total():
    dec = line_decomposition(parity_measure(), [1, 1])
    assert dec.total_mass == pytest.approx(parity_measure().total_mass, abs=1e-10)


def test_line_energy_identity_both_ways():
    dec = line_decomposition(parity_measure(), [1, 1])
    assert dec.total_energy == pytest.approx(
        dict_translation_energy(parity_measure(), [1, 1]), abs=1e-10
    )


def test_line_quadrature_matches_direct():
    dec = line_decomposition(gamma1(), [1])
    for direct, quad in zip(dec.line_energies, dec.quadrature_energies):
        assert quad == pytest.approx(direct, rel=1e-6, abs=1e-12)


def test_line_single_line_through_origin():
    mu = from_atoms(2, {(0, 0): 0.5, (2, 1): 0.25, (-2, -1): 0.25})
    dec = line_decomposition(mu, [2, 1])
    assert dec.representatives.tolist() == [[0, 0]]
    assert dec.line_masses.tolist() == [pytest.approx(1.0)]


def test_line_profile_oracle_agreement():
    nu = parity_conv2()
    dec = line_decomposition(nu, [1, 1])
    for rep, mass in zip(dec.representatives[:20], dec.line_masses[:20]):
        prof = line_profile(nu, rep, [1, 1])
        assert math.fsum(prof.values()) == pytest.approx(mass, abs=1e-12)


def test_line_l1_consistency_with_tv():
    # Half the summed per-line L1 variation is exactly the TV distance.
    nu = parity_conv2()
    dec = line_decomposition(nu, [1, 1])
    total = 0.0
    for rep in dec.representatives:
        prof = line_profile(nu, rep, [1, 1])
        lo = min(prof) - 1
        hi = max(prof) + 1
        total += math.fsum(
            abs(prof.get(l, 0.0) - prof.get(l - 1, 0.0)) for l in range(lo, hi + 2)
        )
    assert 0.5 * total == pytest.approx(tv_distance(nu, [1, 1]), abs=1e-10)


def test_line_representative_strip_rule():
    v = (2, 1)
    vv = 5
    dec = line_decomposition(parity_measure(), v)
    for rep in dec.representatives:
        proj = sum(a * b for a, b in zip(rep, v))
        assert -vv / 2 < proj <= vv / 2


def test_line_zero_direction_rejected():
    with pytest.raises(ValueError):
        line_decomposition(parity_measure(), [0, 0])


def test_line_tail_terms_bounded_by_energy():
    dec = line_decomposition(parity_measure(), [1, 1], split=0.1)
    for beta, energy in zip(dec.tail_terms, dec.quadrature_energies):
        assert 0.0 <= beta <= energy + 1e-15


@settings(deadline=None, max_examples=40)
@given(measures(), directions)
def test_line_invariants_random(mu, v):
    dec = line_decomposition(mu, v)
    assert dec.total_mass == pytest.approx(mu.total_mass, abs=1e-10)
    assert dec.total_energy == pytest.approx(dict_translation_energy(mu, v), abs=1e-10)


# The per-line form of line_decomposition: atoms grouped in a dict per
# representative, one FFT per line, and the closed-form tail summed term
# by term in a Python loop.  The batched pass must reproduce every field
# bit for bit.


def dict_line_groups(nu, v):
    vv = sum(c * c for c in v)
    groups = {}
    for p, m in nu.atoms.items():
        num = sum(a * b for a, b in zip(p, v))
        r0 = num % vv
        r = r0 - vv if 2 * r0 > vv else r0
        ell = (num - r) // vv
        rep = tuple(a - ell * b for a, b in zip(p, v))
        line = groups.setdefault(rep, {})
        line[ell] = line.get(ell, 0.0) + m
    return groups


def dict_line_array(profile):
    lo = min(profile)
    a = np.zeros(max(profile) - lo + 1)
    for ell, m in profile.items():
        a[ell - lo] = m
    return a


def dict_line_steps(a):
    return np.diff(np.concatenate(([0.0], a, [0.0])))


def dict_fft_length(L):
    N = 1
    while N < 2 * (L + 1):
        N *= 2
    return N


def dict_autocorrelation(d, N):
    f = np.fft.rfft(d, n=N)
    return np.fft.irfft(f.real * f.real + f.imag * f.imag, n=N)


def dict_tail(r, L, u):
    k = np.arange(1, L + 1, dtype=float)
    w = np.sin(2.0 * math.pi * u * k) / (math.pi * k)
    acc = 0.0
    for term in (r[1 : L + 1] * w).tolist():
        acc += term
    return float(r[0] * (1.0 - 2.0 * u) - 2.0 * acc)


def dict_line_decomposition(nu, v, split=None):
    vv = tuple(int(c) for c in v)
    groups = dict_line_groups(nu, vv)
    reps = sorted(groups)
    u = 0.0 if split is None else float(split)
    masses, direct, quad, tails, line_nodes = [], [], [], [], []
    for rep in reps:
        a = dict_line_array(groups[rep])
        d = dict_line_steps(a)
        L = a.size
        N = dict_fft_length(L)
        r = dict_autocorrelation(d, N)
        e_direct = float(d @ d)
        assert abs(e_direct - r[0]) <= 1e-10
        masses.append(math.fsum(groups[rep].values()))
        direct.append(e_direct)
        quad.append(float(r[0]))
        tails.append(dict_tail(r, L, u) if split is not None and u < 0.5 else 0.0)
        line_nodes.append(N)
    return LineDecomposition(
        direction=vv,
        representatives=np.array(reps, dtype=np.int64).reshape(len(reps), len(vv)),
        line_masses=np.array(masses),
        line_energies=np.array(direct),
        quadrature_energies=np.array(quad),
        tail_terms=np.array(tails),
        line_nodes=tuple(line_nodes),
        split=u,
        tv=0.5 * math.fsum(abs(d) for d in dict_shift_difference(nu, vv).values()),
    )


def assert_same_decomposition(got, want):
    for field in LineDecomposition.__dataclass_fields__:
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, field
            assert np.array_equal(a, b), field
        else:
            assert a == b, field
    # line_nodes stays Python ints, so a traced run can serialize its sum
    assert all(type(N) is int for N in got.line_nodes)


@settings(deadline=None, max_examples=120)
@given(measure_and_direction, st.none() | st.floats(0.0, 0.5))
def test_line_decomposition_matches_dict_oracle(case, split):
    # lines of different lengths land in different FFT-length groups
    mu, v = case
    got = line_decomposition(mu, v, split=split)
    want = dict_line_decomposition(mu, v, split=split)
    assert_same_decomposition(got, want)


@pytest.mark.parametrize("v", [(1, 1), (2, 1), (1, -1), (0, 3)])
@pytest.mark.parametrize("split", [None, 0.05])
def test_line_decomposition_matches_dict_oracle_on_a_convolution(v, split):
    nu = parity_conv2()
    got = line_decomposition(nu, v, split=split)
    want = dict_line_decomposition(nu, v, split=split)
    assert_same_decomposition(got, want)


def midpoint_tail(d, u, nodes=2**16):
    """Midpoint rule for the integral of |sum_j d_j e(-j t)|^2 over
    u < |t| <= 1/2: twice the integral over (u, 1/2] by evenness."""
    t = u + (0.5 - u) * (np.arange(nodes) + 0.5) / nodes
    j = np.arange(d.size)
    re = np.cos(2.0 * math.pi * np.outer(t, j)) @ d
    im = np.sin(2.0 * math.pi * np.outer(t, j)) @ d
    return 2.0 * (0.5 - u) * float(np.mean(re * re + im * im))


@settings(deadline=None, max_examples=40)
@given(measure_and_direction, st.floats(0.0, 0.5))
def test_line_tails_match_fine_quadrature(case, u):
    mu, v = case
    dec = line_decomposition(mu, v, split=u)
    groups = dict_line_groups(mu, v)
    for rep, energy, beta, N in zip(
        map(tuple, dec.representatives.tolist()),
        dec.quadrature_energies,
        dec.tail_terms,
        dec.line_nodes,
    ):
        want = midpoint_tail(dict_line_steps(dict_line_array(groups[rep])), u)
        # relative to the integral, up to the closed form's own rounding
        allowance = translation._tail_roundoff(energy, N, u)
        assert abs(beta - want) <= 1e-9 * want + allowance, (rep, beta, want)


@settings(deadline=None, max_examples=40)
@given(measure_and_direction, st.lists(st.floats(0.0, 0.5), min_size=2, max_size=4))
def test_line_tails_sound_and_non_increasing_in_split(case, splits):
    mu, v = case
    us = sorted(splits)
    decs = [line_decomposition(mu, v, split=u) for u in us]
    for u, dec in zip(us, decs):
        for p, energy, beta, N in zip(
            dec.line_masses, dec.quadrature_energies, dec.tail_terms, dec.line_nodes
        ):
            main = (8.0 * math.pi**2 / 3.0) * u**3 * p * p
            slack = translation._tail_roundoff(energy, N, u) + 1e-12
            assert energy <= main + beta + slack
    for near, far in zip(decs, decs[1:]):
        for a, b, energy, N in zip(
            near.tail_terms, far.tail_terms, near.quadrature_energies, near.line_nodes
        ):
            assert b <= a + 2.0 * translation._tail_roundoff(energy, N, 0.5)


def two_group_measure():
    # direction (1, 0): the line through (0, 0) spans 8 positions and takes
    # a 32-point FFT, the lines through (0, 1) and (0, 2) hold one atom and
    # take 4, so the first line in representative order is in the group
    # whose spectra come last
    atoms = {(x, 0): 0.1 for x in range(8)}
    atoms[(0, 1)] = 0.1
    atoms[(3, 2)] = 0.1
    return from_atoms(2, atoms)


def corrupt_autocorrelations(monkeypatch, lengths, lags):
    real = translation._autocorrelations

    def fake(steps, N):
        r = real(steps, N)
        if N in lengths:
            r[:, lags] += 1e-6
        return r

    monkeypatch.setattr(translation, "_autocorrelations", fake)


def test_line_decomposition_groups_by_node_count():
    dec = line_decomposition(two_group_measure(), (1, 0))
    assert dec.representatives.tolist() == [[0, 0], [0, 1], [0, 2]]
    assert dec.line_nodes == (32, 4, 4)


def autocorrelation_failure(monkeypatch, N):
    # lags past 0 only, so the direct check on r_0 still passes
    corrupt_autocorrelations(monkeypatch, {N}, slice(1, None))
    with pytest.raises(RuntimeError) as err:
        line_decomposition(two_group_measure(), (1, 0))
    msg = str(err.value)
    assert "mismatch between the FFT and np.correlate" in msg
    assert "FFT " in msg and "correlate " in msg and "tolerance 1e-10" in msg
    return msg


def test_autocorrelation_failure_names_longest_line(monkeypatch):
    msg = autocorrelation_failure(monkeypatch, 32)
    assert "line through (0, 0) along (1, 0) (32-point FFT): lag 1" in msg


def test_autocorrelation_check_covers_every_group(monkeypatch):
    # both lines of the 4-point group span one position; the first is named
    msg = autocorrelation_failure(monkeypatch, 4)
    assert "line through (0, 1) along (1, 0) (4-point FFT): lag 1" in msg


def test_direct_quadrature_mismatch_names_first_line(monkeypatch):
    corrupt_autocorrelations(monkeypatch, {4, 32}, 0)  # every group alike
    with pytest.raises(RuntimeError) as err:
        line_decomposition(two_group_measure(), (1, 0))
    msg = str(err.value)
    assert "mismatch between direct and spectral forms" in msg
    assert "line through (0, 0) along (1, 0)" in msg
    assert "(32-point FFT)" in msg and "tolerance 1e-10" in msg


# -- spectral energy bound --------------------------------------------------------


def test_spectral_point_mass_honest_energy():
    # A point mass has line energy 2 (one +1 step and one -1 step); the
    # check passes because the off-structure level is 1 for this input.
    point = from_atoms(2, {(0, 0): 1.0})
    report = spectral_energy_bound_check(
        point,
        ORIGIN,
        delta=0.01,
        eta=1.0,
        v=[1, 1],
        spread=measured_structure_spread(point, ORIGIN, 1.0),
    )
    assert report.decomposition.quadrature_energies.tolist() == [
        pytest.approx(2.0, abs=1e-12)
    ]
    assert report.passed
    assert report.violations == ()


def test_spectral_parity_pass():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 0.9)
    report = spectral_energy_bound_check(
        nu, W_PARITY, spread.worst_distance, 0.9, [1, 1], spread=spread
    )
    assert report.passed
    assert report.total_beta <= report.beta_budget


def test_spectral_parity_pairing_rejection():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 0.9)
    report = spectral_energy_bound_check(
        nu, W_PARITY, 0.02, 0.9, [1, 0], spread=spread
    )
    assert not report.passed
    assert any("not an integer" in s for s in report.violations)


def test_spectral_window_violation():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 1.0)
    report = spectral_energy_bound_check(
        nu, W_PARITY, 0.25, 1.0, [12, 12], spread=spread
    )
    assert any("exceeds the window" in s for s in report.violations)


def test_spectral_scan_violation_reported():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, ORIGIN, 0.5)
    report = spectral_energy_bound_check(
        nu, ORIGIN, 1e-6, 0.5, [1, 1], spread=spread
    )
    assert any("stray" in s for s in report.violations)


def test_spectral_per_line_bound_structure():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 0.9)
    report = spectral_energy_bound_check(
        nu, W_PARITY, spread.worst_distance, 0.9, [1, 1], spread=spread
    )
    dec = report.decomposition
    assert dec.direction == (1, 1) and dec.split == report.u
    for p, energy, beta, N in zip(
        dec.line_masses, dec.quadrature_energies, dec.tail_terms, dec.line_nodes
    ):
        main = (8.0 * math.pi**2 / 3.0) * report.u**3 * p * p
        slack = translation._tail_roundoff(energy, N, report.u) + 1e-12
        assert energy <= main + beta + slack


# The per-line form of spectral_energy_bound_check: one Python pass over
# the lines with scalar bounds and running totals.  The array check must
# give the same verdict, messages and total bits.


def loop_spectral_check(nu, W, delta, eta, v, spread):
    vv = tuple(int(c) for c in v)
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
    dec = translation.line_decomposition(nu, vv, split=u)
    total_beta = total_energy = 0.0
    lines_ok = True
    for rep, p, energy, beta, N in zip(
        dec.representatives.tolist(),
        dec.line_masses.tolist(),
        dec.quadrature_energies.tolist(),
        dec.tail_terms.tolist(),
        dec.line_nodes,
    ):
        main_bound = (8.0 * math.pi**2 / 3.0) * u**3 * p * p
        roundoff = translation._tail_roundoff(energy, N, u)
        slack = roundoff + 1e-12
        ok = energy <= main_bound + beta + slack
        if lines_ok and not ok:
            lines_ok = False
            violations.append(
                f"line through {tuple(rep)}: energy {energy:.6g} exceeds main"
                f" {main_bound:.6g} + beta {beta:.6g} + slack {slack:.6g}"
                f" (roundoff allowance {roundoff:.3g} + floor 1e-12)"
            )
        total_beta += beta
        total_energy += energy
    aggregate_ok = total_beta <= 4.0 * eta * eta + 1e-9
    passed = not violations and lines_ok and aggregate_ok
    if not aggregate_ok:
        violations.append(
            f"aggregate beta {total_beta:.6g} exceeds 4 eta^2 = {4.0 * eta * eta:.6g}"
        )
    return passed, tuple(violations), total_beta, total_energy


def assert_spectral_matches_loop(nu, W, delta, eta, v, spread):
    got = spectral_energy_bound_check(nu, W, delta, eta, v, spread=spread)
    want = loop_spectral_check(nu, W, delta, eta, v, spread=spread)
    assert (got.passed, got.violations) == want[:2]
    # bit for bit, sign of zero included
    totals = (got.total_beta, got.total_energy)
    assert tuple(map(float.hex, totals)) == tuple(map(float.hex, want[2:]))
    return got


@pytest.mark.parametrize(
    "W, delta, eta, v",
    [
        (W_PARITY, 0.02, 0.9, (1, 1)),
        (W_PARITY, 0.02, 0.9, (2, 1)),
        (W_PARITY, 0.02, 0.9, (1, 0)),  # pairing rejection
        (W_PARITY, 0.25, 1.0, (12, 12)),  # window violation
        (ORIGIN, 1e-6, 0.5, (1, 1)),  # stray heavy frequencies
        (W_PARITY, 0.1, 1e-4, (1, -1)),  # aggregate over budget
    ],
)
def test_spectral_check_matches_loop_oracle(W, delta, eta, v):
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W, eta)
    assert_spectral_matches_loop(nu, W, delta, eta, v, spread)


def origin_lattice(n):
    return dataclasses.replace(ORIGIN, dimension=n)


@settings(deadline=None, max_examples=80)
@given(measure_and_direction, st.floats(1e-3, 0.5), st.floats(1e-4, 1.0))
def test_spectral_check_matches_loop_oracle_random(case, delta, eta):
    # a fixed spread keeps the grid scan out of the comparison
    mu, v = case
    spread = HeavySpread(eta, 0, 0.0)
    assert_spectral_matches_loop(mu, origin_lattice(mu.dimension), delta, eta, v, spread)


def without_tails(monkeypatch):
    real = translation.line_decomposition

    def forced(*args, **kwargs):
        dec = real(*args, **kwargs)
        return dataclasses.replace(dec, tail_terms=np.zeros_like(dec.tail_terms))

    monkeypatch.setattr(translation, "line_decomposition", forced)


def test_spectral_line_failure_names_both_slack_terms(monkeypatch):
    without_tails(monkeypatch)
    nu = parity_conv2()
    report = spectral_energy_bound_check(
        nu, W_PARITY, 0.02, 0.9, [1, 1], measured_structure_spread(nu, W_PARITY, 0.9)
    )
    assert not report.passed
    (msg,) = [s for s in report.violations if s.startswith("line through")]
    assert "exceeds main" in msg and "+ beta 0 +" in msg
    assert "roundoff allowance" in msg and "+ floor 1e-12)" in msg


def test_spectral_forced_line_failure_matches_loop_oracle(monkeypatch):
    without_tails(monkeypatch)
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 0.9)
    report = assert_spectral_matches_loop(nu, W_PARITY, 0.02, 0.9, (1, 1), spread)
    assert not report.passed and report.total_beta == 0.0


# -- ball reduction ----------------------------------------------------------------


def test_ball_reduction_radius_precondition():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 0.9)
    with pytest.raises(ValueError):
        ball_reduction_tv_bound(
            nu, [3, 3], W_PARITY, 0.02, 0.9, (0.0, 0.0), 2.0, spread=spread
        )


def test_ball_reduction_point_mass_guard():
    # Degenerate input: the transform is 1 everywhere, so eta must be 1
    # and the bound is vacuous; the actual TV is 1 by disjointness.
    point = from_atoms(2, {(0, 0): 1.0})
    spread = measured_structure_spread(point, ORIGIN, 1.0)
    rep = ball_reduction_tv_bound(
        point, [1, 1], ORIGIN, 0.01, 1.0, (0.0, 0.0), 50.0, spread=spread
    )
    assert rep.actual_tv == 1.0
    assert rep.vacuous
    assert rep.passed


@functools.cache
def parity_conv8():
    return convolve_many_fft([parity_measure()] * 8)


def test_ball_reduction_parity_eight_pieces():
    nu = parity_conv8()
    eta = math.exp(-8 / 512.0)
    spread = measured_structure_spread(nu, W_PARITY, eta)
    tail = convolution_tail_center([parity_measure()] * 8, 8.0, 2.0, conv=nu)
    rep = ball_reduction_tv_bound(
        nu,
        [1, 1],
        W_PARITY,
        max(spread.worst_distance, 1e-12),
        eta,
        tail.center,
        tail.radius,
        spread=spread,
    )
    assert rep.actual_tv == pytest.approx(0.06249999999834577, abs=1e-9)
    assert rep.actual_tv <= rep.bound + 1e-9
    assert rep.passed


@functools.cache
def gamma_conv24():
    policy = TruncationPolicy.for_gaussian(2, 8.0, 1e-11)
    g = gamma_truncated(2, 8.0, policy=policy)
    return convolve_many_fft([g] * 24)


def test_ball_reduction_gamma_informative_bound():
    # 24 pieces push the off-structure transform level below 1e-5 at
    # distance 0.05, which is the first regime where the bound lands
    # strictly under the trivial TV bound of 1.
    nu = gamma_conv24()
    spread = measured_structure_spread(nu, ORIGIN, 1e-5)
    assert spread.worst_distance <= 0.05
    rep = ball_reduction_tv_bound(
        nu, [1, 0], ORIGIN, 0.05, 1e-5, (0.0, 0.0), 60.0, spread=spread
    )
    assert rep.actual_tv == pytest.approx(0.02551551814900518, abs=1e-9)
    assert rep.bound == pytest.approx(0.4227667721131873, abs=1e-6)
    assert not rep.vacuous
    assert rep.passed


def test_ball_reduction_bound_assembly():
    nu = parity_conv2()
    spread = measured_structure_spread(nu, W_PARITY, 0.9)
    rep = ball_reduction_tv_bound(
        nu,
        [1, 1],
        W_PARITY,
        max(spread.worst_distance, 1e-12),
        0.9,
        (0.0, 0.0),
        100.0,
        spread=spread,
    )
    assert rep.bound == pytest.approx(
        rep.main_term + rep.spectral_term + rep.mass_term, abs=1e-12
    )
    n = 2
    assert rep.spectral_term == pytest.approx((4 * 100.0) ** ((n + 1) / 2) * 0.9)
    assert rep.main_term == pytest.approx(
        math.pi * math.sqrt(200.0) * math.sqrt(2.0) * rep.spectral.delta**1.5
    )


# -- convolution tail center --------------------------------------------------------


def tail_center(mus, R, L):
    return convolution_tail_center(mus, R, L, conv=convolve_many_fft(mus))


def test_tail_center_symmetric_pieces():
    tc = tail_center([parity_measure()] * 4, 8.0, 2.0)
    assert max(abs(c) for c in tc.center) <= 1e-10


def test_tail_center_level_precondition():
    with pytest.raises(ValueError):
        tail_center([gamma1()], 8.0, 0.5)


def test_tail_center_four_fold_exact():
    tc = tail_center([gamma1()] * 4, 8.0, 2.0)
    assert tc.mass_bound == pytest.approx(8.0 * math.exp(-2.0), abs=1e-15)
    assert tc.outside_mass <= tc.mass_bound
    assert tc.outside_mass <= 1e-10


def test_tail_center_shifted_pieces():
    shifted = translate(gamma1(), [3])
    tc = tail_center([shifted] * 4, 8.0, 2.0)
    assert tc.center[0] == pytest.approx(12.0, abs=1e-9)


def test_tail_center_truncation_radii_formula():
    from sketchlab.measure import density_certificate

    mus = [parity_measure(), gamma2()]
    tc = tail_center(mus, 8.0, 2.0)
    for radius, mu in zip(tc.truncation_radii, mus):
        cert = density_certificate(mu, 8.0)
        expect = 8.0 * math.sqrt(
            4.0 + (2.0 / math.pi) * (math.log(2.0) - math.log(cert.alpha))
        )
        assert radius == pytest.approx(expect, abs=1e-12)


def test_tail_center_radius_formula():
    tc = tail_center([gamma1()] * 4, 8.0, 2.0)
    from sketchlab.measure import density_certificate

    S = density_certificate(gamma1(), 8.0).S
    expect = 2.0 * 8.0 * math.sqrt(4.0) * 2.0 * math.sqrt(1 + 4.0 + S)
    assert tc.radius == pytest.approx(expect, abs=1e-12)


# -- end-to-end certification --------------------------------------------------------


def test_certify_parity_kernel_set():
    rep = parity_report()
    kernel = {r.direction for kind, r in rep.records if kind == "kernel"}
    assert kernel == {(1, 1), (1, -1), (2, 0), (0, 2)}
    assert rep.structure.rank == 1


def test_certify_parity_kernel_tvs_frozen():
    tvs = {
        r.direction: r.actual_tv
        for kind, r in parity_report().records
        if kind == "kernel"
    }
    assert tvs[(1, 1)] == pytest.approx(0.08838834764718884, abs=1e-9)
    assert tvs[(2, 0)] == pytest.approx(0.1242376966067392, abs=1e-9)
    assert parity_report().max_kernel_tv == pytest.approx(
        0.1242376966067392, abs=1e-9
    )


def test_certify_parity_odd_shift_rigidity():
    # Coset invariance: the convolution lives on the even-sum lattice, so
    # an odd-sum shift has exactly disjoint support and TV equal to the
    # total mass (1 up to the recorded convolution deficit).
    nu = convolve_many_fft([parity_measure()] * 4)
    for p in nu.atoms:
        assert (p[0] + p[1]) % 2 == 0
    shifted = {tuple(a + b for a, b in zip(p, (1, 0))) for p in nu.atoms}
    assert shifted.isdisjoint(nu.atoms.keys())
    controls = [r for kind, r in parity_report().records if kind == "control"]
    assert controls
    for r in controls:
        assert abs(r.actual_tv - nu.total_mass) <= 1e-12
        assert abs(r.actual_tv - 1.0) <= 1e-6
        assert not r.passed


def test_certify_mod3_kernel_and_control():
    rep = mod3_report()
    tvs = {(kind, r.direction): r.actual_tv for kind, r in rep.records}
    assert ("kernel", (3, 0)) in tvs
    assert tvs[("kernel", (3, 0))] == pytest.approx(0.18750007925020715, abs=1e-9)
    assert ("control", (1, 0)) in tvs
    assert abs(tvs[("control", (1, 0))] - 1.0) <= 1e-6


def test_certify_gamma_every_small_shift_in_kernel():
    rep = gamma_report(8.0)
    assert rep.structure.rank == 0
    kinds = {kind for kind, _ in rep.records}
    assert kinds == {"kernel"}
    assert {r.direction for _, r in rep.records} == {(0, 1), (1, 0)}


def test_certify_gamma_tv_strictly_decreasing():
    tvs = [gamma_report(R).max_kernel_tv for R in (4.0, 8.0, 16.0)]
    assert tvs[0] > tvs[1] > tvs[2]


def test_certify_gamma_tv_non_increasing_through_32():
    tvs = [gamma_report(R).max_kernel_tv for R in (4.0, 8.0, 16.0, 32.0)]
    assert all(a >= b for a, b in zip(tvs, tvs[1:]))


def test_certify_kernel_records_pass():
    for rep in (parity_report(), mod3_report()):
        for kind, r in rep.records:
            if kind == "kernel":
                assert r.passed
                assert r.spectral.violations == ()
                assert r.actual_tv <= r.bound + 1e-9


def test_certify_empty_kernel_is_valid():
    both = restrict(
        gamma2(), lambda x: x[0] % 3 == 0 and x[1] % 3 == 0, renormalize=True
    )
    rep = translation_invariance_certify([both] * 4, "exact", STRUCTURE, 2)
    assert math.isnan(rep.max_kernel_tv)
    assert all(kind == "control" for kind, _ in rep.records)


def test_certify_mollified_gamma_kernel_everything():
    rep = translation_invariance_certify(
        [gamma2()] * 2, "mollified", STRUCTURE, 1, controls=0
    )
    assert rep.structure.rank == 0
    assert {r.direction for _, r in rep.records} == {(0, 1), (1, 0)}


@functools.cache
def slab_measure():
    weights = {
        (k, -k): math.exp(-math.pi * 2.0 * k * k / 64.0) for k in range(-24, 25)
    }
    total = math.fsum(weights.values())
    return from_atoms(2, {p: w / total for p, w in weights.items()})


@functools.cache
def slab_report():
    cfg = dataclasses.replace(STRUCTURE, K=1e8)
    return translation_invariance_certify([slab_measure()] * 2, "mollified", cfg, 2)


def test_certify_mollified_slab_kernel_direction():
    rep = slab_report()
    assert rep.structure.rank == 1
    kernel = [r for kind, r in rep.records if kind == "kernel"]
    assert [r.direction for r in kernel] == [(1, -1)]
    assert kernel[0].actual_tv == pytest.approx(0.10164627909572416, abs=1e-9)


def test_certify_mollified_slab_controls_rejected():
    for kind, r in slab_report().records:
        if kind == "control":
            assert r.spectral.violations
            assert not r.passed


def test_certify_unknown_route():
    with pytest.raises(ValueError):
        translation_invariance_certify(
            [gamma2()], "fancy", STRUCTURE, 1
        )


def test_certify_enumeration_cap():
    with pytest.raises(ValueError):
        translation_invariance_certify(
            [gamma2()], "exact", STRUCTURE, 13
        )


def test_certify_record_terms_sum_to_bound():
    records = parity_report().records
    assert [kind for kind, _ in records] == ["kernel"] * 4 + ["control"] * 2
    for _, r in records:
        terms = r.main_term + r.spectral_term + r.mass_term
        assert terms == pytest.approx(r.bound, rel=1e-12)


def test_certify_records_carry_the_shared_parameters():
    rep = parity_report()
    for _, r in rep.records:
        assert (r.spectral.delta, r.spectral.eta) == (rep.delta, rep.eta)
        assert (r.H, r.center) == (rep.H, rep.center)
        assert r.vacuous == (r.bound >= 1.0)


def test_certify_deficit_reported():
    rep = parity_report()
    assert 0.0 <= rep.convolution.deficit < 1e-6
