"""Unit tests for the discrete Gaussian primitives."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sketchlab import dgauss
from sketchlab.measure import gamma_truncated


def direct_rho_1d(R: float, center: float, width: int) -> float:
    # independent oracle: plain truncated summation
    return math.fsum(
        math.exp(-math.pi * (k - center) ** 2 / (R * R))
        for k in range(-width, width + 1)
    )


class TestShapes:
    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            dgauss.GaussianShape(2, np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            dgauss.GaussianShape(2, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_truncation_policy_certificate(self):
        pol = dgauss.TruncationPolicy.for_gaussian(2, 8.0, 1e-12)
        assert dgauss.gamma_tail_bound(2, 8.0, pol.radius) <= 1e-12 * (1 + 1e-9)


class TestRhoSum:
    def test_box_growth_below_1e12(self):
        # oracle: compare [-40, 40] against [-80, 80]
        shp = dgauss.GaussianShape(1, 4.0 * np.eye(1), np.zeros(1))
        a = dgauss.rho_sum(shp, [(-40, 40)]).value
        b = dgauss.rho_sum(shp, [(-80, 80)]).value
        assert abs(a - b) < 1e-12
        assert abs(a - direct_rho_1d(2.0, 0.0, 40)) < 1e-14

    def test_single_origin_term(self):
        shp = dgauss.GaussianShape(1, 49.0 * np.eye(1), np.zeros(1))
        assert dgauss.rho_sum(shp, [(0, 0)]).value == 1.0

    def test_product_structure(self):
        one = dgauss.rho_sum(
            dgauss.GaussianShape(1, 4.0 * np.eye(1), np.zeros(1)), [(-40, 40)]
        ).value
        two = dgauss.rho_sum(
            dgauss.GaussianShape(2, 4.0 * np.eye(2), np.zeros(2)), [(-40, 40), (-40, 40)]
        ).value
        assert two == pytest.approx(one * one, rel=1e-14)

    def test_empty_box_rejected(self):
        shp = dgauss.GaussianShape(1, 4.0 * np.eye(1), np.zeros(1))
        with pytest.raises(ValueError):
            dgauss.rho_sum(shp, [(3, 2)])

    def test_tail_bound_covers_truth(self):
        # exact omitted mass vs the certificate, 1-D
        shp = dgauss.GaussianShape(1, 9.0 * np.eye(1), np.zeros(1))
        inner = dgauss.rho_sum(shp, [(-10, 10)])
        outer = dgauss.rho_sum(shp, [(-200, 200)]).value
        assert outer - inner.value <= inner.tail_bound

    def test_non_diagonal_shape_matches_direct_sum(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.5]])
        shp = dgauss.GaussianShape(2, sigma, np.zeros(2))
        got = dgauss.rho_sum(shp, [(-8, 8), (-8, 8)]).value
        inv = np.linalg.inv(sigma)
        oracle = math.fsum(
            math.exp(-math.pi * (np.array([x, y]) @ inv @ np.array([x, y])))
            for x in range(-8, 9)
            for y in range(-8, 9)
        )
        assert got == pytest.approx(oracle, rel=1e-14)


class TestGammaPmf:
    def test_origin_times_normalizer_is_one(self):
        val = dgauss.gamma_pmf(2.0, [0])
        assert val * dgauss.gamma_normalizer(1, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_ratio_forced_by_mass_function(self):
        ratio = dgauss.gamma_pmf(2.0, [1]) / dgauss.gamma_pmf(2.0, [0])
        assert ratio == pytest.approx(math.exp(-math.pi / 4.0), rel=1e-14)

    def test_frozen_value_at_origin(self):
        # oracle: direct truncated summation of rho_2(Z) over [-80, 80]
        assert dgauss.gamma_pmf(2.0, [0]) == pytest.approx(
            0.4999965126819667, rel=1e-13
        )

    @given(st.sampled_from([1.0, 2.0, 3.5, 8.0, 16.0]), st.sampled_from([1, 2]))
    @settings(deadline=None, max_examples=10)
    def test_normalization(self, R, n):
        box = dgauss.auto_box(n, dgauss.TruncationPolicy.for_gaussian(n, R).radius)
        pts = dgauss.box_points(box)
        total = math.fsum(dgauss.gamma_pmf(R, p) for p in pts)
        assert abs(total - 1.0) <= 1e-10

    @given(
        st.sampled_from([1.0, 2.0, 5.0]),
        st.lists(st.integers(-20, 20), min_size=1, max_size=3),
    )
    @settings(deadline=None, max_examples=40)
    def test_symmetry(self, R, x):
        assert dgauss.gamma_pmf(R, x) == dgauss.gamma_pmf(R, [-v for v in x])

    @given(st.sampled_from([2.0, 4.0, 8.0]), st.sampled_from([4.0, 8.0, 16.0]))
    @settings(deadline=None, max_examples=9)
    def test_tail_bound_holds_exactly(self, R, u):
        # exact tail mass above radius u for n in {1, 2}
        for n in (1, 2):
            wide = dgauss.auto_box(
                n, dgauss.TruncationPolicy.for_gaussian(n, R, 1e-15).radius
            )
            pts = dgauss.box_points(wide)
            norms2 = np.einsum("ij,ij->i", pts, pts)
            mass = math.fsum(
                dgauss.gamma_pmf(R, p) for p, q in zip(pts, norms2) if q > u * u
            )
            assert mass <= dgauss.gamma_tail_bound(n, R, u) + 1e-15


class TestSampler:
    def test_reproducible(self):
        pol = dgauss.TruncationPolicy.for_gaussian(2, 4.0)
        a = dgauss.sample_truncated(4.0, pol, 7, count=64)
        b = dgauss.sample_truncated(4.0, pol, 7, count=64)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_counts(self):
        pol = dgauss.TruncationPolicy.for_gaussian(2, 4.0)
        a = dgauss.sample_truncated(4.0, pol, 7, count=16)
        b = dgauss.sample_truncated(4.0, pol, 7, count=64)
        assert np.array_equal(a, b[:16])

    def test_mean_near_zero(self):
        pol = dgauss.TruncationPolicy.for_gaussian(2, 3.0)
        s = dgauss.sample_truncated(3.0, pol, 11, count=100_000)
        tol = 4.0 * 3.0 / math.sqrt(100_000)
        assert np.all(np.abs(s.mean(axis=0)) < tol)

    def test_empirical_pmf_at_origin(self):
        pol = dgauss.TruncationPolicy.for_gaussian(1, 2.0)
        s = dgauss.sample_truncated(2.0, pol, 13, count=100_000)
        p_hat = float(np.mean(s[:, 0] == 0))
        p = dgauss.gamma_pmf(2.0, [0])
        se = math.sqrt(p * (1 - p) / 100_000)
        assert abs(p_hat - p) <= 3.0 * se

    def test_marginal_chi_square(self):
        # oracle: the exact truncated pmf, pooled into bins with expected
        # count at least 5; seed 0 gives p = 0.0311
        trials = 100_000
        pol = dgauss.TruncationPolicy.for_gaussian(1, 4.0)
        draws = dgauss.sample_truncated(4.0, pol, 0, count=trials)
        counts = Counter(draws[:, 0].tolist())
        law = gamma_truncated(1, 4.0)
        expected = {
            p[0]: trials * m / law.total_mass for p, m in law.atoms.items()
        }
        core = sorted(v for v, e in expected.items() if e >= 5.0)
        lo, hi = core[0], core[-1]
        obs = [sum(c for v, c in counts.items() if v < lo)]
        exp = [sum(e for v, e in expected.items() if v < lo)]
        for v in range(lo, hi + 1):
            obs.append(counts.get(v, 0))
            exp.append(expected.get(v, 0.0))
        obs.append(sum(c for v, c in counts.items() if v > hi))
        exp.append(sum(e for v, e in expected.items() if v > hi))
        expv = np.array(exp) * (sum(obs) / math.fsum(exp))
        chi2, p = stats.chisquare(np.array(obs, dtype=float), expv)
        assert p >= 0.01
        assert abs(p - 0.031122165665191333) < 1e-6

    def test_radius_below_R_rejected(self):
        pol = dgauss.TruncationPolicy(1, 1e-12, 0.5)
        with pytest.raises(ValueError):
            dgauss.sample_truncated(2.0, pol, 3, count=1)


class TestPcg64Raw:
    """The seed kernel against numpy's own PCG64, the generator it
    reimplements, and the batched sampler against per-seed draws."""

    @given(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=16),
        st.integers(1, 8),
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_numpy_streams(self, seeds, count):
        want = [np.random.PCG64(s).random_raw(count) for s in seeds]
        got = dgauss.pcg64_raw(seeds, count)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("count", range(1, 9))
    def test_edge_seeds(self, count):
        # one and two 32-bit entropy words, and the top of the range
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        want = [np.random.PCG64(s).random_raw(count) for s in seeds]
        assert np.array_equal(dgauss.pcg64_raw(seeds, count), want)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seeds_outside_64_bits(self, seed):
        with pytest.raises(OverflowError):
            dgauss.pcg64_raw([0, seed], 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_sampler_matches_single_seed_draws(self, monkeypatch, n):
        # a ball of radius 2.9 at R = 2.9 rejects every row with a
        # coordinate of 3, so some seeds fall back to sample_truncated
        pol = dgauss.TruncationPolicy(n, 1e-3, 2.9)
        single = dgauss.sample_truncated
        fallbacks = []

        def counted(*args, **kwargs):
            fallbacks.append(args[2])
            return single(*args, **kwargs)

        monkeypatch.setattr(dgauss, "sample_truncated", counted)
        seeds = np.random.default_rng(n).integers(0, 2**63, size=64)
        got = dgauss.sample_truncated_many(2.9, pol, seeds, 4)
        assert got.shape == (64, 4, n)
        for s, rows in zip(seeds.tolist(), got):
            assert np.array_equal(rows, single(2.9, pol, s, count=4))
        assert fallbacks


class TestPoisson:
    def test_one_dimensional_R4(self):
        chk = dgauss.poisson_identity_check(np.array([[1.0 / 16.0]]))
        assert chk.relative_error <= 1e-8

    def test_identity_self_dual(self):
        chk = dgauss.poisson_identity_check(np.eye(2))
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    def test_smooth_regime_corridor(self):
        # lambda_min(M^{-1}) >= eta_{1/3}(Z^n)^2 puts the sum within
        # det(M)^{-1/2} [2/3, 4/3]; for Z^2, lambda_2 = 1 and
        # eta_{1/3} <= sqrt(ln(2 n (1 + 3)) / pi)
        eta2 = math.log(16.0) / math.pi
        for scale in (1.0, 2.0, 5.0):
            M = np.diag([1.0 / (eta2 * scale), 1.0 / (eta2 * 2.0 * scale)])
            chk = dgauss.poisson_identity_check(M)
            det_half = math.sqrt(float(np.linalg.det(M)))
            assert 2.0 / 3.0 <= chk.lhs * det_half <= 4.0 / 3.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            dgauss.poisson_identity_check(np.array([[1.0, 0.0], [0.0, -2.0]]))

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25)
    def test_random_pd_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        M = A @ A.T + np.eye(n) * 0.05
        # keep both primal and dual sums desk-sized
        M = M / max(1.0, np.linalg.eigvalsh(M)[-1] * 0.25)
        chk = dgauss.poisson_identity_check(M)
        assert chk.relative_error <= 1e-8


def shifted_sums(radius: float, center) -> tuple[float, float]:
    """rho_{R,c}(Z^n) and rho_R(Z^n) on tail-certified boxes."""
    c = np.asarray(center, dtype=float).reshape(-1)
    n = c.size
    u = dgauss.TruncationPolicy.for_gaussian(n, radius, 1e-14).radius
    lhs = dgauss.rho_sum(
        dgauss.GaussianShape(n, radius * radius * np.eye(n), c), dgauss.auto_box(n, u, c)
    ).value
    rhs = dgauss.rho_sum(
        dgauss.GaussianShape(n, radius * radius * np.eye(n), np.zeros(n)),
        dgauss.auto_box(n, u),
    ).value
    return lhs, rhs


class TestShiftedMaximizer:
    # rho_{R,c}(Z^n) <= rho_R(Z^n): rho_sum's tail bound leans on it
    def test_zero_center_equality(self):
        lhs, rhs = shifted_sums(2.0, [0.0])
        assert lhs == rhs

    def test_half_shift_strict(self):
        lhs, rhs = shifted_sums(2.0, [0.5])
        assert lhs < rhs
        # oracle: direct summation of both sides
        assert lhs == pytest.approx(direct_rho_1d(2.0, 0.5, 60), rel=1e-11)
        assert rhs == pytest.approx(direct_rho_1d(2.0, 0.0, 60), rel=1e-11)

    def test_hundred_random_centers(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            lhs, rhs = shifted_sums(3.0, rng.random(2))
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def upper_sums(M: np.ndarray, center) -> tuple[float, float]:
    """sum_z exp(-pi (z-c)^T M (z-c)) by rho_sum, and (1 + lambda_min(M)^{-1/2})^n."""
    n = M.shape[0]
    c = np.asarray(center, dtype=float).reshape(-1)
    r = math.sqrt(float(np.linalg.eigvalsh(np.linalg.inv(M))[-1]))
    u = dgauss.TruncationPolicy.for_gaussian(n, max(r, 1.0), 1e-14).radius
    lhs = dgauss.rho_sum(
        dgauss.GaussianShape(n, np.linalg.inv(M), c), dgauss.auto_box(n, u, c)
    ).value
    rhs = (1.0 + 1.0 / math.sqrt(float(np.linalg.eigvalsh(M)[0]))) ** n
    return lhs, rhs


class TestMultidimUpper:
    def test_identity_one_dim(self):
        lhs, rhs = upper_sums(np.eye(1), [0.0])
        assert lhs <= rhs and lhs <= 2.0
        oracle = math.fsum(math.exp(-math.pi * k * k) for k in range(-20, 21))
        assert lhs == pytest.approx(oracle, rel=1e-12)

    def test_point_mass_limit(self):
        lhs, rhs = upper_sums(400.0 * np.eye(1), [0.0])
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.05, abs=1e-9)

    def test_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            M = A @ A.T + 0.1 * np.eye(2)
            lhs, rhs = upper_sums(M, rng.random(2))
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


class TestConvDomination:
    def test_one_dim_R2(self):
        chk = dgauss.gamma_conv_domination_check(2.0, 1)
        assert chk.passed and chk.worst_ratio <= 4.0

    def test_ratio_at_origin_below_four(self):
        # oracle: exact convolution at 0 is sum_y gamma_R(y)^2
        R = 2.0
        w = 40
        conv0 = math.fsum(dgauss.gamma_pmf(R, [y]) ** 2 for y in range(-w, w + 1))
        ratio0 = conv0 / dgauss.gamma_pmf(math.sqrt(2.0) * R, [0])
        assert ratio0 < 4.0
        chk = dgauss.gamma_conv_domination_check(R, 1)
        assert chk.worst_ratio >= ratio0 - 1e-12

    def test_two_dim_R3(self):
        assert dgauss.gamma_conv_domination_check(3.0, 2).passed

    def test_threshold_enforced(self):
        with pytest.raises(ValueError):
            dgauss.gamma_conv_domination_check(0.5, 4)
