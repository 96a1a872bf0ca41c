"""Unit tests for sparse measures, transforms, and scans."""

from __future__ import annotations

import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

import sketchlab
from dgauss_oracle import gamma_pmf
from measure_oracle import (
    dict_canonical,
    from_atoms,
    full_spectrum,
    lexsort_groups,
    restrict,
    scalar_pass,
    scalar_polish,
    translate,
)
from structure_oracle import heavy_product
from sketchlab import measure
from sketchlab.spectrum import GRID_EXPONENT, SketchLattice
from sketchlab.translation import measured_structure_spread


def normalized(dim: int, weights: dict) -> measure.SparseMeasure:
    return from_atoms(
        dim, {k: v / math.fsum(weights.values()) for k, v in weights.items()}
    )


def small_measures(dim: int = 1):
    # random sparse probability measures with small integer support
    atom = st.tuples(*(st.integers(-6, 6) for _ in range(dim)))
    return st.dictionaries(atom, st.floats(0.01, 1.0), min_size=1, max_size=8).map(
        lambda d: normalized(dim, d)
    )


def torus_norm(coords) -> float:
    """Euclidean distance of a point of R^n to the nearest integer vector."""
    return float(np.linalg.norm(measure._reduce_torus(np.asarray(coords, dtype=float))))


class TestTorusPoint:
    """A torus point is a float row reduced by _reduce_torus into [-1/2, 1/2)^n."""

    def test_reduction_idempotent(self):
        red = measure._reduce_torus(np.array([0.75, -1.25, 0.5]))
        assert red.tolist() == [-0.25, -0.25, -0.5]
        assert np.array_equal(measure._reduce_torus(red), red)

    def test_norm_is_distance_to_nearest_integer(self):
        assert torus_norm([0.5]) == 0.5
        assert torus_norm([0.9]) == pytest.approx(0.1)
        assert torus_norm([0.0, 0.0]) == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_reduction_matches_scalar_rule(self, coords):
        # the array reduction gives the bits of the scalar c - floor(c + 1/2)
        red = measure._reduce_torus(np.array(coords))
        assert red.tolist() == [c - math.floor(c + 0.5) for c in coords]

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_norm_zero_iff_integer(self, coords):
        if all(abs(c - round(c)) < 1e-12 for c in coords):
            assert torus_norm(coords) < 1e-11
        else:
            assert torus_norm(coords) > 0.0


@st.composite
def atom_arrays(draw):
    # few distinct points, so most repeat three or more times; masses over
    # many decades, with zeros and negatives just above -1e-12 mixed in
    n = draw(st.integers(1, 3))
    point = st.tuples(*(st.integers(-3, 3) for _ in range(n)))
    pool = draw(st.lists(point, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=24))
    raw = np.array(
        [draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-300, 0)) for _ in picks]
    )
    masses = raw / math.fsum(raw)
    for i in draw(st.lists(st.integers(0, len(picks) - 1), max_size=4)):
        masses[i] = draw(st.sampled_from([0.0, -0.0, -1e-13, -1e-12, -5e-13]))
    if draw(st.sampled_from([False] * 9 + [True])):
        masses[draw(st.integers(0, len(picks) - 1))] = -1e-11
    deficit = draw(
        st.sampled_from([0.0, 1e-9, 0.25])
        | st.just(max(0.0, 1.0 - math.fsum(masses[masses > 0.0])))
    )
    dimension = draw(st.sampled_from([n] * 9 + [n + 1]))
    points = np.array([pool[i] for i in picks], dtype=np.int64)
    return dimension, points, masses, deficit


@st.composite
def sorted_atoms(draw):
    # distinct rows in the order Python sorts tuples, masses over decades
    n = draw(st.integers(1, 3))
    pool = draw(
        st.lists(
            st.tuples(*(st.integers(-40, 40) for _ in range(n))),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    rows = sorted(pool)
    raw = np.array(
        [draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-12, 0)) for _ in rows]
    )
    return np.array(rows, dtype=np.int64).reshape(len(rows), n), raw / math.fsum(raw)


@st.composite
def grouping_rows(draw):
    # few distinct rows with negative coordinates, so most repeat
    n = draw(st.integers(1, 3))
    # the largest scale overflows the packed key from n = 2 on
    scale = draw(st.sampled_from([1, 3, 1000, 2**40]))
    coord = st.integers(-3, 3).map(lambda c: c * scale)
    pool = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), n)


class TestLexGroups:
    """The packed-key sort of measure._lex_groups against np.lexsort."""

    @given(grouping_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_oracle(self, rows):
        spans = [int(c.max()) - int(c.min()) + 1 for c in rows.T]
        if math.prod(spans) >= 2**63:
            with pytest.raises(ValueError, match="overflows int64"):
                measure._lex_groups(rows.T)
            return
        order, starts = measure._lex_groups(rows.T)
        want_order, want_starts = lexsort_groups(rows)
        # the same permutation, so equal keys keep their input order
        assert np.array_equal(order, want_order)
        assert np.array_equal(starts, want_starts)

    def test_single_row(self):
        order, starts = measure._lex_groups(np.array([[-5, 7]]).T)
        assert order.tolist() == [0] and starts.tolist() == [True]

    def test_ties_keep_input_order(self):
        rows = np.array([[1, -1], [0, 2], [1, -1], [0, 2], [1, -1]])
        order, starts = measure._lex_groups(rows.T)
        assert order.tolist() == [1, 3, 0, 2, 4]
        assert starts.tolist() == [True, False, True, False, False]

    def test_packed_range_overflow_names_the_spans(self):
        rows = np.array([[-(2**40), 0], [2**40, 2**30]], dtype=np.int64)
        spans = r"column spans \[2199023255553, 1073741825\]"
        with pytest.raises(ValueError, match=f"overflows int64: {spans}"):
            measure._lex_groups(rows.T)


class TestSparseMeasure:
    def test_mass_accounting(self):
        mu = measure.SparseMeasure(1, [[0], [1]], [0.5, 0.5])
        assert mu.total_mass == 1.0 and mu.deficit == 0.0

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            measure.SparseMeasure(1, [[0]], [0.7])

    def test_deficit_flagged(self):
        mu = measure.SparseMeasure(1, [[0]], [0.9], deficit=0.1)
        assert mu.deficit == pytest.approx(0.1)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            measure.SparseMeasure(1, [[0], [1]], [1.2, -0.2])

    @given(atom_arrays())
    @settings(max_examples=400, deadline=None)
    def test_matches_dict_constructor(self, case):
        dimension, points, masses, deficit = case
        try:
            want = dict_canonical(dimension, zip(points.tolist(), masses.tolist()), deficit)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                measure.SparseMeasure(dimension, points, masses, deficit)
            return
        got = measure.SparseMeasure(dimension, points, masses, deficit)
        assert np.array_equal(got.points, want[0])
        assert got.masses.tobytes() == want[1].tobytes()
        assert got.deficit == want[2]

    @given(sorted_atoms())
    @settings(max_examples=200, deadline=None)
    def test_sorted_input_skips_the_repeat_sum(self, case):
        # distinct rows in sorted order with positive masses, as an
        # unwrapped FFT product's argwhere cells come: the constructor
        # stores them as _sum_repeats would, without calling it
        points, masses = case
        want_points, want_masses = measure._sum_repeats(points, masses)
        calls = []
        real = measure._sum_repeats
        try:
            measure._sum_repeats = lambda *a: calls.append(a) or real(*a)
            mu = measure.SparseMeasure(points.shape[1], points, masses, deficit=0.0)
        finally:
            measure._sum_repeats = real
        assert calls == []
        assert mu.points.dtype == want_points.dtype
        assert mu.points.tobytes() == want_points.tobytes()
        assert mu.points.shape == want_points.shape
        assert mu.masses.tobytes() == want_masses.tobytes()

    @pytest.mark.parametrize(
        "points, masses",
        [
            ([[1, 0], [0, 5]], [0.5, 0.5]),  # unsorted
            ([[0, 1], [0, 1], [2, 0]], [0.25, 0.25, 0.5]),  # repeated
            ([[0, 1], [1, 0], [2, 0]], [0.5, 0.0, 0.5]),  # a zero mass
            ([[0, 1], [1, 0]], [1.0, -1e-13]),  # a mass just below zero
        ],
    )
    def test_other_input_is_summed(self, points, masses, monkeypatch):
        calls = []
        real = measure._sum_repeats
        spy = lambda *a: calls.append(a) or real(*a)  # noqa: E731
        monkeypatch.setattr(measure, "_sum_repeats", spy)
        mu = measure.SparseMeasure(2, np.array(points), np.array(masses))
        want = dict_canonical(2, zip(points, masses))
        assert len(calls) == 1
        assert np.array_equal(mu.points, want[0])
        assert mu.masses.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize(
        "points, masses",
        [([[0, 1], [1, 0]], [0.25, 0.75]), ([[1, 0], [0, 1]], [0.25, 0.75])],
    )
    def test_stores_copies(self, points, masses):
        # sorted (no repeat sum) and unsorted input alike
        pts = np.array(points, dtype=np.int64)
        ms = np.array(masses)
        mu = measure.SparseMeasure(2, pts, ms)
        before = (mu.points.copy(), mu.masses.copy())
        pts[:] = 7
        ms[:] = 0.5
        assert np.array_equal(mu.points, before[0])
        assert np.array_equal(mu.masses, before[1])

    @given(atom_arrays())
    @settings(max_examples=100, deadline=None)
    def test_corners_are_the_axis_extremes(self, case):
        _, points, _, _ = case
        lo, hi = measure._corners(points)
        assert np.array_equal(lo, points.min(axis=0))
        assert np.array_equal(hi, points.max(axis=0))
        assert lo.dtype == hi.dtype == points.dtype

    def test_gamma_truncated_deficit_below_target(self):
        g = measure.gamma_truncated(2, 4.0)
        assert 0.0 <= g.deficit <= 1e-12
        assert g.support_size > 100


class TestFourier:
    def test_point_mass_transform_is_one(self):
        pm = measure.SparseMeasure.uniform([[0]])
        for z in ([0.0], [0.3], [-0.49]):
            assert measure.fourier_at(pm, z) == pytest.approx(1.0)

    def test_two_atom_cancellation(self):
        u = measure.SparseMeasure.uniform([[0], [1]])
        assert abs(measure.fourier_at(u, [0.5])) < 1e-15

    def test_gaussian_frequency_decay(self):
        # |gamma_R_hat| <= exp(-R^2 ||zeta||^2 / 5) for R >= 2
        g = measure.gamma_truncated(1, 4.0)
        val = abs(measure.fourier_at(g, [0.125]))
        assert val <= math.exp(-16.0 * 0.125**2 / 5.0) + g.deficit + 1e-9

    @given(small_measures(1))
    @settings(max_examples=30, deadline=None)
    def test_transform_at_zero_is_total_mass(self, mu):
        assert measure.fourier_at(mu, [0.0]) == pytest.approx(
            mu.total_mass, abs=1e-12
        )

    @given(small_measures(1), st.floats(-0.5, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_measure_has_real_transform(self, mu, z):
        sym_atoms: dict[tuple[int, ...], float] = {}
        for p, m in mu.atoms.items():
            sym_atoms[p] = sym_atoms.get(p, 0.0) + m / 2.0
            q = tuple(-c for c in p)
            sym_atoms[q] = sym_atoms.get(q, 0.0) + m / 2.0
        sym = from_atoms(1, sym_atoms)
        assert abs(measure.fourier_at(sym, [z]).imag) <= 1e-10


class TestParseval:
    def test_truncated_gaussian(self):
        g = measure.gamma_truncated(1, 4.0)
        # oracle: both sides by direct summation on a sufficient grid
        side = 64
        lhs = math.fsum(m * m for m in g.atoms.values())
        rhs = (
            math.fsum(
                abs(measure.fourier_at(g, [j / side])) ** 2 for j in range(side)
            )
            / side
        )
        assert abs(lhs - rhs) / lhs < 1e-12

    def test_grid_too_small(self):
        g = measure.gamma_truncated(1, 4.0)
        with pytest.raises(ValueError, match="grid smaller than support"):
            measure.large_spectrum_scan(g, 8.0, 3)


class TestConvolve:
    def test_identity_element(self):
        g = measure.gamma_truncated(1, 4.0)
        conv = measure.convolve(g, measure.SparseMeasure.uniform([[0]]))
        assert conv.atoms.keys() == g.atoms.keys()
        assert all(conv.atoms[p] == pytest.approx(g.atoms[p]) for p in g.atoms)

    def test_binomial(self):
        u = measure.SparseMeasure.uniform([[0], [1]])
        conv = measure.convolve(u, u)
        assert conv.atoms == {(0,): 0.25, (1,): 0.5, (2,): 0.25}

    def test_fourier_multiplicativity(self):
        g = measure.gamma_truncated(1, 3.0)
        h = translate(measure.gamma_truncated(1, 2.0), [2])
        conv = measure.convolve(g, h)
        rng = np.random.default_rng(5)
        for z in rng.random(100) - 0.5:
            lhs = measure.fourier_at(conv, [z])
            rhs = measure.fourier_at(g, [z]) * measure.fourier_at(h, [z])
            assert abs(lhs - rhs) <= 1e-10

    @given(small_measures(1), small_measures(1))
    @settings(max_examples=20, deadline=None)
    def test_commutative(self, a, b):
        ab = measure.convolve(a, b)
        ba = measure.convolve(b, a)
        assert ab.atoms.keys() == ba.atoms.keys()
        assert all(abs(ab.atoms[p] - ba.atoms[p]) <= 1e-12 for p in ab.atoms)

    @given(small_measures(1), small_measures(1), small_measures(1))
    @settings(max_examples=10, deadline=None)
    def test_associative(self, a, b, c):
        left = measure.convolve(measure.convolve(a, b), c)
        right = measure.convolve(a, measure.convolve(b, c))
        assert left.atoms.keys() == right.atoms.keys()
        assert all(abs(left.atoms[p] - right.atoms[p]) <= 1e-12 for p in left.atoms)


def scipy_direct_convolve(mu1, mu2):
    """The convolve body before the shift-and-add kernel, kept as its
    oracle: scipy's direct summation over the two dense boxes."""
    n = mu1.dimension
    box1, box2 = mu1.bounding_box(), mu2.bounding_box()
    lo1 = np.array([b[0] for b in box1])
    lo2 = np.array([b[0] for b in box2])
    a1 = np.zeros([b[1] - b[0] + 1 for b in box1])
    a1[tuple((mu1.points - lo1).T)] = mu1.masses
    a2 = np.zeros([b[1] - b[0] + 1 for b in box2])
    a2[tuple((mu2.points - lo2).T)] = mu2.masses
    conv = signal.convolve(a1, a2, method="direct")
    lo = lo1 + lo2
    idx = np.argwhere(conv > 0.0)
    pts = idx + lo
    masses = conv[tuple(idx.T)]
    total = math.fsum(masses)
    return measure.SparseMeasure(n, pts, masses, deficit=max(0.0, 1.0 - total))


def boxed_measure(draw, n: int) -> measure.SparseMeasure:
    # a random fill of a random box; masses span many decades so that a
    # change in summation order shows in the low bits
    shape = draw(st.tuples(*(st.integers(1, 9 if n < 3 else 5) for _ in range(n))))
    corner = draw(st.tuples(*(st.integers(-5, 5) for _ in range(n))))
    fill = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(shape) < fill
    keep.flat[rng.integers(keep.size)] = True
    offsets = np.argwhere(keep)
    masses = rng.random(len(offsets)) ** 12 + 1e-30
    return measure.SparseMeasure(n, offsets + corner, masses / masses.sum())


@st.composite
def convolution_inputs(draw):
    n = draw(st.integers(1, 3))
    return boxed_measure(draw, n), boxed_measure(draw, n)


def assert_same_measure(got, want):
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.masses, want.masses)
    assert got.deficit == want.deficit


class TestConvolveOracle:
    @given(convolution_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_scipy_direct(self, inputs):
        mu1, mu2 = inputs
        assert_same_measure(
            measure.convolve(mu1, mu2), scipy_direct_convolve(mu1, mu2)
        )

    def test_parity_symmetrize_input(self):
        # the odd coset of gamma_8 against its reflection: 67x67 boxes
        g = measure.gamma_truncated(2, 8.0)
        odd = restrict(g, lambda p: sum(p) % 2 == 1, renormalize=True)
        rev = measure.reflect(odd)
        assert_same_measure(measure.convolve(odd, rev), scipy_direct_convolve(odd, rev))

    def test_cli_import_leaves_scipy_signal_out(self):
        src = str(Path(sketchlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # no scipy module at all: the scan polish is numpy alone
        probe = (
            "import sys, sketchlab.cli; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_extract_and_tv_sweep_leave_numpy_ma_out(self, tmp_path):
        # a bare np.unique imports numpy.ma (about 70 ms) on first use, so
        # one anywhere in either verb's path shows up here
        src = str(Path(sketchlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cfg = tmp_path / "desk.cfg"
        cfg.write_text("n = 2\nM = 2\nsweep = 4, 8\nseed = 3\n")
        probe = (
            "import sys\n"
            "from sketchlab.cli import main\n"
            "codes = [main([verb, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "         for verb in ('tv-sweep', 'extract')]\n"
            "print(codes, 'numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "[0, 0] False"


class TestConvolvePowerFFT:
    """k-fold self-convolution through convolve_many_fft([g] * k)."""

    def test_single_power_is_identity(self):
        g = measure.gamma_truncated(1, 4.0)
        got = measure.convolve_many_fft([g]).atoms
        assert all(abs(got.get(p, 0.0) - m) <= 1e-12 for p, m in g.atoms.items())

    def test_square_matches_direct(self):
        g = measure.gamma_truncated(1, 4.0)
        got = measure.convolve_many_fft([g] * 2).atoms
        d2 = measure.convolve(g, g)
        assert all(abs(got.get(p, 0.0) - m) <= 1e-10 for p, m in d2.atoms.items())

    def test_point_mass_translates(self):
        p5 = measure.convolve_many_fft([measure.SparseMeasure.uniform([[1]])] * 5)
        assert p5.atoms == {(5,): 1.0}


@st.composite
def law_products(draw):
    """Pieces for convolve_many_fft: one to three laws in n = 1..3, each a
    random asymmetric fill of a box far from the origin with masses over
    up to 30 decades, repeated 1..9 times, in a drawn order."""
    n = draw(st.integers(1, 3))
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.tuples(*(st.integers(1, 6 if n < 3 else 3) for _ in range(n))))
        corner = draw(st.tuples(*(st.integers(-900, 900) for _ in range(n))))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keep = rng.random(shape) < draw(st.floats(0.2, 1.0))
        keep.flat[rng.integers(keep.size)] = True
        offsets = np.argwhere(keep)
        masses = 10.0 ** -rng.integers(0, draw(st.integers(1, 31)), len(offsets))
        masses = masses * (1.0 + rng.random(len(offsets)))
        law = measure.SparseMeasure(n, offsets + corner, masses / masses.sum())
        laws.extend([law] * draw(st.integers(1, 9)))
    return draw(st.permutations(laws))


def exact_product(mus):
    """The shift-and-add product of mus, each law the left factor, and a
    bound on its relative rounding per cell: every step sums at most the
    law's box cells of nonnegative products, gamma_{cells + 1} each."""
    want = mus[0]
    steps = 0
    for m in mus[1:]:
        want = measure.convolve(m, want)
        steps += int(np.prod(m.points.max(axis=0) - m.points.min(axis=0) + 1)) + 1
    return want, 2.0 * steps * 2.0**-53


def assert_within_charge(got, want, rel):
    """Every kept atom of got lies within its roundoff bound of want
    (want's own rounding allowed for), and got's deficit covers the L1
    distance between the two."""
    have = want.atoms
    for p, m in got.atoms.items():
        exact = have.get(p, 0.0)
        assert abs(m - exact) <= got.roundoff + rel * exact, (p, m, exact)
    kept = got.atoms
    gap = math.fsum(abs(kept.get(p, 0.0) - m) for p, m in have.items())
    gap += math.fsum(m for p, m in kept.items() if p not in have)
    assert gap <= got.deficit + rel


class TestTailGridConvolution:
    """convolve_many_fft on a grid sized by the tail window, with repeated
    laws transformed once, against the exact shift-and-add."""

    @settings(max_examples=60, deadline=None)
    @given(law_products())
    def test_within_charged_error_of_the_exact_product(self, mus):
        got = measure.convolve_many_fft(mus)
        want, rel = exact_product(mus)
        assert_within_charge(got, want, rel)

    @staticmethod
    def grid_shapes(monkeypatch, mus):
        """convolve_many_fft(mus) and the shape of every grid it transforms."""
        shapes = []
        real = np.fft.rfftn

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfftn", spy)
        got = measure.convolve_many_fft(mus)
        monkeypatch.undo()
        return got, shapes

    def test_narrow_window_wraps_and_charges_the_deficit(self, monkeypatch):
        # 8 copies of a law with an atom of mass 1e-20 at distance 100:
        # the sum spans 801 cells, but all but 8e-20 of its mass lies in
        # a few cells, so the grid side is the widest piece's 128
        law = measure.SparseMeasure(1, np.array([[5], [105]]), np.array([1.0, 1e-20]))
        got, shapes = self.grid_shapes(monkeypatch, [law] * 8)
        assert shapes == [(128,)]
        assert got.atoms == {(40,): 1.0}
        err = measure._product_error(128, [(law, 8)])
        assert got.roundoff == err + measure.WRAP_MASS
        assert got.deficit >= 2.0 * err + 2.0 * measure.WRAP_MASS
        want, rel = exact_product([law] * 8)
        assert_within_charge(got, want, rel)

    def test_wrapping_keeps_every_coordinate_parity(self, monkeypatch):
        # an even-coset law with an atom of mass 1e-30 far out: the
        # product wraps, and every atom must be read back at a point of
        # the even coset (what wraps is far below FFT_DUST)
        g = measure.gamma_truncated(2, 6.0)
        even = restrict(g, lambda p: (p[0] + p[1]) % 2 == 0, renormalize=True)
        far = measure.SparseMeasure(
            2,
            np.concatenate([even.points, [[40, 0]]]),
            np.concatenate([even.masses * (1.0 - 1e-30), [1e-30]]),
        )
        got, shapes = self.grid_shapes(monkeypatch, [far] * 6)
        span = 6 * int(np.ptp(far.points[:, 0])) + 1
        assert shapes[0][0] < span
        assert not (got.points.sum(axis=1) % 2).any()


class TestDensityCertificate:
    def test_truncated_gaussian_is_full_density(self):
        g = measure.gamma_truncated(1, 4.0)
        cert = measure.density_certificate(g, 4.0)
        assert cert.alpha >= 1.0 - 1e-6
        assert cert.S == pytest.approx(math.log2(2.0 / cert.alpha))

    def test_parity_piece_is_half_density(self):
        g = measure.gamma_truncated(2, 4.0)
        even = restrict(
            g, lambda p: (p[0] + p[1]) % 2 == 0, renormalize=True
        )
        # oracle: alpha equals the exact parity mass
        parity_mass = math.fsum(
            m for p, m in g.atoms.items() if (p[0] + p[1]) % 2 == 0
        )
        cert = measure.density_certificate(even, 4.0)
        assert cert.alpha == pytest.approx(parity_mass, abs=1e-3)
        assert abs(cert.alpha - 0.5) < 1e-3

    def test_point_mass_alpha_is_gamma_at_zero(self):
        cert = measure.density_certificate(
            measure.SparseMeasure.uniform([[0, 0]]), 4.0
        )
        assert cert.alpha == pytest.approx(gamma_pmf(4.0, [0, 0]), rel=1e-12)

    @given(small_measures(2))
    @settings(max_examples=20, deadline=None)
    def test_alpha_at_most_one_for_probability_measures(self, mu):
        cert = measure.density_certificate(mu, 3.0)
        assert cert.alpha <= 1.0 + 1e-9

    def test_certificate_pointwise_domination(self):
        mu = measure.SparseMeasure.uniform([[0], [3], [5]])
        cert = measure.density_certificate(mu, 4.0)
        for p, m in mu.atoms.items():
            assert m <= gamma_pmf(4.0, p) / cert.alpha * (1 + 1e-9)


@st.composite
def scan_inputs(draw, max_n: int = 3):
    n = draw(st.integers(1, max_n))
    mus = [boxed_measure(draw, n) for _ in range(draw(st.integers(1, 3)))]
    exponent = draw(st.integers(4, 6 if n < 3 else 5))
    return mus, exponent, draw(st.sampled_from([2.0, 4.0, 16.0]))


def assert_same_hits(got, mags, level):
    """got (full-grid cells) is the set of cells where the fftn oracle's
    mags reach level, up to cells within 1e-12 of the level, where the
    two transforms' roundoff may decide either way."""
    cells = set(map(tuple, np.asarray(got).tolist()))
    sure = set(map(tuple, np.argwhere(mags >= level + 1e-12).tolist()))
    maybe = set(map(tuple, np.argwhere(np.abs(mags - level) <= 1e-12).tolist()))
    assert sure <= cells <= sure | maybe


class TestHalfSpectrumScans:
    """The scans read rfftn halves and mirror them; the full-grid fftn
    oracle finds the same hits."""

    @settings(max_examples=40, deadline=None)
    @given(scan_inputs())
    def test_large_spectrum_scan(self, inputs):
        (mu, *_), exponent, K = inputs
        rep = measure.large_spectrum_scan(mu, K, exponent)
        mags = full_spectrum(mu, 2**exponent)
        assert_same_hits(rep.grid_index, mags, 1.0 - 1.0 / K)
        assert np.allclose(rep.grid_magnitudes, mags[tuple(rep.grid_index.T)], atol=1e-12)
        # (-magnitude, grid index) order, as before
        assert np.all(np.diff(rep.magnitudes) <= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(scan_inputs())
    def test_heavy_cells(self, inputs):
        mus, exponent, K = inputs
        side = 2**exponent
        mags = functools.reduce(np.multiply, [full_spectrum(m, side) for m in mus])
        cells, values = measure.heavy_cells(mus, 1.0 - 1.0 / K, exponent)
        assert_same_hits(cells, mags, 1.0 - 1.0 / K)
        # in the C order of the full grid, each cell with the bits of the
        # per-piece rfftn product
        want = heavy_product(mus, exponent)
        assert cells.tolist() == np.argwhere(want >= 1.0 - 1.0 / K).tolist()
        assert values.tobytes() == want[tuple(cells.T)].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(scan_inputs(max_n=2))  # the spread scans at side 128 at least
    def test_measured_structure_spread(self, inputs):
        (mu, *_), _, K = inputs
        n = mu.dimension
        origin = SketchLattice(n, (), (), (), span_error=0.0, s_certified=0.0)
        eta = 1.0 - 1.0 / K
        spread = measured_structure_spread(mu, origin, eta)
        side = 2 ** measure._covering_exponent([mu], GRID_EXPONENT)
        mags = full_spectrum(mu, side)
        level = eta + 1e-12
        sure = int(np.count_nonzero((mags > level) & (np.abs(mags - level) > 1e-12)))
        maybe = int(np.count_nonzero(np.abs(mags - level) <= 1e-12))
        assert sure <= spread.count <= sure + maybe
        if maybe == 0 and sure:
            rows = measure._reduce_torus(np.argwhere(mags > level) / side)
            want = float(np.sqrt(np.einsum("ij,ij->i", rows, rows)).max())
            assert spread.worst_distance == pytest.approx(want, abs=1e-12)

    def test_measured_structure_spread_is_strict(self):
        # a cell whose magnitude is eta + 1e-12 exactly is not counted
        mu = measure.SparseMeasure(
            1, np.array([[0], [1], [3]]), np.array([0.5, 0.25, 0.25])
        )
        exponent = measure._covering_exponent([mu], GRID_EXPONENT)
        _, mags = measure.heavy_cells([mu], 0.0, exponent)  # every cell
        value = float(np.sort(mags)[mags.size // 2])
        near = value - 1e-12
        eta = next(e for e in (near, *np.nextafter(near, [-1.0, 2.0])) if e + 1e-12 == value)
        origin = SketchLattice(1, (), (), (), span_error=0.0, s_certified=0.0)
        spread = measured_structure_spread(mu, origin, eta)
        assert spread.count == np.count_nonzero(mags > value)
        assert spread.count < np.count_nonzero(mags >= value)


class TestLargeSpectrumScan:
    def test_point_mass_hits_everything(self):
        rep = measure.large_spectrum_scan(
            measure.SparseMeasure.uniform([[0]]), 4.0, 4
        )
        assert rep.zetas.shape == (16, 1)

    def test_even_support_clusters_at_zero_and_half(self):
        ev = measure.SparseMeasure.uniform([[k] for k in range(-20, 21, 2)])
        assert abs(measure.fourier_at(ev, [0.5])) == pytest.approx(1.0)
        rep = measure.large_spectrum_scan(ev, 8.0, 8)
        z = np.abs(rep.zetas[:, 0])
        assert (np.minimum(z, np.abs(z - 0.5)) < 0.01).all()

    def test_gaussian_spectrum_is_near_origin(self):
        g = measure.gamma_truncated(1, 8.0)
        rep = measure.large_spectrum_scan(g, 8.0, 8)
        # frequency-domain decay forces ||zeta|| <= sqrt(5 ln(K/(K-1)))/R
        cap = math.sqrt(5.0 * math.log(8.0 / 7.0)) / 8.0 + 1e-6
        assert rep.zetas.shape[0]
        assert (np.linalg.norm(rep.zetas, axis=1) <= cap).all()

    def test_refine_superset_and_improvement(self):
        g = translate(measure.gamma_truncated(1, 4.0), [1])
        plain = measure.large_spectrum_scan(g, 8.0, 6)
        refined = measure.large_spectrum_scan(g, 8.0, 6, refine=True)
        assert set(map(tuple, plain.grid_index.tolist())) <= set(
            map(tuple, refined.grid_index.tolist())
        )
        assert (refined.magnitudes >= refined.grid_magnitudes - 1e-12).all()

    def test_margin_vacuous_flag(self):
        g = measure.gamma_truncated(1, 8.0)
        rep = measure.large_spectrum_scan(g, 8.0, 8)
        assert not rep.margin_vacuous
        coarse = measure.large_spectrum_scan(g, 1000.0, 7)
        assert coarse.margin_vacuous

    def test_tie_order_lexicographic(self):
        ev = restrict(
            measure.gamma_truncated(2, 8.0),
            lambda p: (p[0] + p[1]) % 2 == 0,
            renormalize=True,
        )
        rep = measure.large_spectrum_scan(ev, 8.0, 7)
        ones = rep.grid_index[rep.magnitudes >= 1.0 - 1e-12]
        assert ones[:2].tolist() == [[0, 0], [64, 64]]

    @settings(max_examples=40, deadline=None)
    @given(mu=small_measures(2), refine=st.booleans())
    def test_rows_sorted_as_the_hit_list_was(self, mu, refine):
        # the old hit list sorted by (-magnitude, grid index tuple)
        rep = measure.large_spectrum_scan(mu, 2.0, 4, refine=refine)
        keys = [
            (-m, tuple(k))
            for m, k in zip(rep.magnitudes.tolist(), rep.grid_index.tolist())
        ]
        assert keys == sorted(keys)
        assert ((rep.zetas >= -0.5) & (rep.zetas < 0.5)).all()


class TestPolish:
    """The array polish against the per-hit scalar polish it replaced."""

    @given(
        small_measures(1) | small_measures(2) | small_measures(3),
        st.integers(0, 2**32 - 1),
        st.integers(3, 6),
        st.floats(2.0, 64.0),
    )
    @example(
        normalized(1, {(0,): 0.625, (-1,): 0.5625, (2,): 0.5, (6,): 0.5}),
        0,
        3,
        2.0,
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_oracle(self, mu, seed, exponent, K):
        # a grid that covers the support, as every scan in the program has
        exponent = measure._covering_exponent([mu], exponent)
        step = 0.5 / 2**exponent
        rng = np.random.default_rng(seed)
        # Scan hits are the only starts the program polishes; up to six of
        # them, as rows polish independently.
        hits = measure.large_spectrum_scan(mu, K, exponent).zetas
        hits = hits[rng.permutation(hits.shape[0])[:6]]
        # One coordinate pass is what replaced the scalar Brent search.
        # Brent is a local search, and the pass climbs every bump its
        # samples find and keeps the highest: from the hit 1/8 of the saved
        # example it reaches 1/16, where |mu_hat| rises towards 0, and
        # Brent stops at the local maximum 0.1494.  So a pass ends at least
        # as high as Brent.
        # Whole polishes are not compared: three sweeps of coordinate
        # ascent that part at one pass climb different maxima, higher or
        # lower, on about 3 in 1000 hits of such small measures.
        lo, hi = mu.points.min(axis=0), mu.points.max(axis=0)
        box = measure._grid_embed(mu, hi - lo + 1)
        centred = [np.arange(size) - 0.5 * (size - 1) for size in box.shape]
        for i in range(mu.dimension):
            w = measure._collapse(box, centred, hits, i)
            moved = measure._ascend(w, centred[i], hits[:, i], step)
            for start, c in zip(hits, moved):
                _, oracle = scalar_pass(mu, start, i, step)
                line = start.copy()
                line[i] = c
                assert abs(measure.fourier_at(mu, line)) >= oracle - 1e-9
                assert abs(c - start[i]) <= step * (1.0 + 1e-12)
        # A whole polish, from the hits or from arbitrary starts, never
        # loses magnitude and moves each coordinate by at most one step per
        # sweep.
        starts = np.concatenate([hits, rng.uniform(-0.5, 0.5, (6, mu.dimension))])
        polished = measure._polish(mu, starts, step)
        before = np.abs(measure.fourier_many(mu, starts))
        assert (np.abs(measure.fourier_many(mu, polished)) >= before - 1e-15).all()
        assert (np.abs(polished - starts) <= 3.0 * step * (1.0 + 1e-12)).all()
        rep = measure.large_spectrum_scan(mu, K, 5, refine=True)
        assert (rep.magnitudes >= rep.grid_magnitudes - 1e-12).all()

    def test_lands_where_the_scalar_polish_does_on_a_gaussian_coset(self):
        # The measures the program scans are Gaussian pieces, whose slices
        # have one maximum within reach of a hit, so both polishes climb
        # the same one; |mu_hat| is even, so rows agree up to z = +-want
        # (mod 1).
        even = restrict(
            measure.gamma_truncated(2, 3.0),
            lambda p: (p[0] + p[1]) % 2 == 0,
            renormalize=True,
        )
        rep = measure.large_spectrum_scan(even, 4.0, 5)
        got = measure._polish(even, rep.zetas, 1.0 / 64)
        assert rep.zetas.shape[0] > 10
        for start, z in zip(rep.zetas, got):
            want = scalar_polish(even, start, 1.0 / 64)
            assert min(
                np.abs(measure._reduce_torus(z - sign * want)).max()
                for sign in (1.0, -1.0)
            ) <= 1e-6
            assert abs(
                abs(measure.fourier_at(even, z)) - abs(measure.fourier_at(even, want))
            ) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_collapse_matches_fourier_along_a_coordinate(self, n):
        rng = np.random.default_rng(n)
        pts = rng.integers(-7, 8, (30, n))
        mu = measure.SparseMeasure(n, pts, rng.dirichlet(np.ones(30)))
        lo = mu.points.min(axis=0)
        box = measure._grid_embed(mu, mu.points.max(axis=0) - lo + 1)
        centred = [np.arange(size) - 0.5 * (size - 1) for size in box.shape]
        # the centred coordinates shift x by the box centre: a phase
        centre = lo + 0.5 * (np.array(box.shape) - 1)
        z = rng.uniform(-0.5, 0.5, (9, n))
        c = rng.uniform(-0.5, 0.5, 9)
        for i in range(n):
            w = measure._collapse(box, centred, z, i)
            line = z.copy()
            line[:, i] = c
            got = np.exp(-2j * math.pi * (line @ centre)) * np.einsum(
                "ra,ra->r", w, np.exp(-2j * math.pi * np.multiply.outer(c, centred[i]))
            )
            assert np.abs(got - measure.fourier_many(mu, line)).max() <= 1e-12

    def test_blocks_give_the_same_rows(self, monkeypatch):
        g = translate(measure.gamma_truncated(2, 3.0), [1, -2])
        starts = measure._reduce_torus(np.arange(14).reshape(7, 2) / 16.0)
        whole = measure._polish(g, starts, 1.0 / 32)
        monkeypatch.setattr(measure, "_BLOCK_CELLS", 2 * g.support_size)
        assert np.array_equal(measure._polish(g, starts, 1.0 / 32), whole)


class TestSymmetrize:
    def test_single_symmetric_measure_squares(self):
        g = measure.gamma_truncated(1, 3.0)
        sym = measure.symmetrize([g]).atoms
        direct = measure.convolve(g, g)
        assert all(
            abs(sym.get(p, 0.0) - m) <= 1e-12 for p, m in direct.atoms.items()
        )

    def test_transform_nonnegative(self):
        g = measure.gamma_truncated(1, 3.0)
        pieces = [g, translate(g, [2]), translate(g, [-1])]
        sym = measure.symmetrize(pieces)
        rng = np.random.default_rng(0)
        vals = measure.fourier_many(sym, rng.random((1000, 1)) - 0.5)
        assert vals.real.min() >= -1e-10
        assert np.abs(vals.imag).max() <= 1e-10

    def test_heavy_product_transfers_to_symmetrization(self):
        # product of |mu_i_hat| >= e^{-M/K} forces mu_sym_hat >= 1 - 4/K
        K = 16.0
        g = measure.gamma_truncated(1, 6.0)
        pieces = [g, translate(g, [1]), translate(g, [3])]
        M = len(pieces)
        sym = measure.symmetrize(pieces)
        rng = np.random.default_rng(9)
        tested = 0
        for z in rng.random(400) - 0.5:
            prod = math.prod(abs(measure.fourier_at(p, [z])) for p in pieces)
            if prod >= math.exp(-M / K):
                val = measure.fourier_at(sym, [z]).real
                assert val >= 1.0 - 4.0 / K - 1e-10
                tested += 1
        assert tested > 0

    def test_equal_laws_are_convolved_once(self, monkeypatch):
        g = measure.gamma_truncated(2, 3.0)
        h = translate(g, [1, 0])
        # equal to g in points, masses and deficit, but a separate object
        g_again = measure.SparseMeasure(2, g.points, g.masses, deficit=g.deficit)
        pieces = [g, h, g_again, g, h]
        want = dict_symmetrize(pieces)
        calls = []
        real = measure.convolve_many_fft

        def spy(mus):
            calls.append(mus)
            return real(mus)

        monkeypatch.setattr(measure, "convolve_many_fft", spy)
        sym = measure.symmetrize(pieces)
        assert len(calls) == 2
        assert np.array_equal(sym.points, want[0])
        assert sym.masses.tobytes() == want[1].tobytes()
        assert sym.deficit == want[2]

    def test_overlapping_distinct_laws_match_dict_accumulation(self):
        # four distinct laws over several decades of mass; every point of
        # the inner box collects a term from each, so a summation order
        # other than the dict's sequential one shows in the low bits
        g = measure.gamma_truncated(2, 3.0)
        even = restrict(
            measure.gamma_truncated(2, 4.0), lambda p: sum(p) % 2 == 0, renormalize=True
        )
        rng = np.random.default_rng(8)
        pts = rng.integers(-4, 5, size=(40, 2))
        w = rng.random(40) ** 8 + 1e-9
        noise = measure.SparseMeasure(2, pts, w / w.sum())
        pieces = [g, measure.gamma_truncated(2, 2.0), even, noise, g]
        want = dict_symmetrize(pieces)
        sym = measure.symmetrize(pieces)
        assert np.array_equal(sym.points, want[0])
        assert sym.masses.tobytes() == want[1].tobytes()
        assert sym.deficit == want[2]
        # against the exact shift-and-add: kept atoms agree to roundoff,
        # and the deficit covers every atom the dust clip dropped
        exact = dict_symmetrize(pieces, direct_product)
        kept = sym.atoms
        direct = dict(zip(map(tuple, exact[0].tolist()), exact[1].tolist()))
        assert all(abs(m - direct.get(p, 0.0)) <= 1e-12 for p, m in kept.items())
        dropped = [m for p, m in direct.items() if p not in kept]
        assert dropped and sym.deficit >= math.fsum(dropped)

    def test_roundoff_covers_every_kept_atom(self):
        # the parity sketch's S is read off this law, at far-tail atoms
        # just above FFT_DUST: the exact value of every kept atom must lie
        # within the roundoff bound that density_certificate adds
        g = measure.gamma_truncated(2, 8.0)
        odd = restrict(g, lambda p: sum(p) % 2 == 1, renormalize=True)
        sym = measure.symmetrize([odd])
        exact = measure.convolve(odd, measure.reflect(odd)).atoms
        rel = 2.0 * (odd.support_size + 2) * 2.0**-53  # the reference's rounding
        assert all(
            abs(m - exact[p]) <= sym.roundoff + rel * exact[p]
            for p, m in sym.atoms.items()
        )
        cert = measure.density_certificate(sym, math.sqrt(2.0) * 8.0)
        unraised = measure.SparseMeasure(2, sym.points, sym.masses, deficit=sym.deficit)
        assert cert.S > measure.density_certificate(unraised, math.sqrt(2.0) * 8.0).S

    @pytest.mark.parametrize("radius", [3.0, 6.0])
    def test_never_calls_the_direct_convolution(self, monkeypatch, radius):
        # 509 atoms at R = 3, 2 029 at R = 6: both sides of 2 000
        g = measure.gamma_truncated(2, radius)

        def refuse(mu1, mu2):
            raise AssertionError("symmetrize called measure.convolve")

        monkeypatch.setattr(measure, "convolve", refuse)
        measure.symmetrize([g, translate(g, [1, 0])])


def fft_product(m):
    return measure.convolve_many_fft([m, measure.reflect(m)])


def direct_product(m):
    return measure.convolve(m, measure.reflect(m))


def dict_symmetrize(pieces, product=fft_product):
    """symmetrize's dict accumulation before the array store, kept as its
    oracle: each law's product with its reflection (by FFT, as symmetrize
    forms it, or by the exact shift-and-add), terms summed point by point
    in the order of the laws; the deficit is the mean of the products'
    plus the sum's rounding, gamma_{M+1} times the kept mass."""
    out: dict[tuple[int, ...], float] = {}
    deficits = []
    for m in pieces:
        term = product(m)
        deficits.append(term.deficit)
        for p, w in term.atoms.items():
            out[p] = out.get(p, 0.0) + w / len(pieces)
    M = len(pieces)
    rounding = measure._gamma(M + 1) * math.fsum(out.values())
    return dict_canonical(2, out, math.fsum(deficits) / M + rounding)

