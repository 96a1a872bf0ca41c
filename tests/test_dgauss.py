"""Unit tests for the discrete Gaussian primitives."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dgauss_oracle import batch_sample_truncated, gamma_pmf, gamma_tail_bound
from sketchlab import dgauss
from sketchlab.measure import gamma_truncated


def direct_rho(sigma: np.ndarray, box) -> float:
    """sum_x exp(-pi x^T Sigma^{-1} x) over the box, one point at a time:
    the independent oracle of the vectorized sum."""
    inv = np.linalg.inv(sigma)
    return math.fsum(
        math.exp(-math.pi * float(np.array(x) @ inv @ np.array(x)))
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    )


@st.composite
def shapes(draw) -> np.ndarray:
    """Symmetric positive-definite shape matrices A A^T + t I in n = 1, 2."""
    n = draw(st.sampled_from([1, 2]))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return A @ A.T + draw(st.floats(0.1, 2.0)) * np.eye(n)


def same_float(a: float, b: float) -> bool:
    """Equal bit patterns, so 0.0 and -0.0 differ."""
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


@st.composite
def spread_floats(draw):
    """Finite signed doubles of mantissa m in [1, 10) and decade -300 to
    300, zeros of both signs, subnormals and values of equal magnitude
    and opposite sign, so sums cancel."""
    value = (
        st.builds(
            lambda m, k, s: s * m * 10.0**k,
            st.floats(1.0, 10.0, exclude_max=True),
            st.integers(-300, 300),
            st.sampled_from([1.0, -1.0]),
        )
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
        | st.floats(-1e-307, 1e-307)
        | st.floats(-1e300, 1e300)
    )
    xs = draw(st.lists(value, max_size=40))
    if not xs:
        return xs
    return xs + [-x for x in draw(st.lists(st.sampled_from(xs), max_size=5))]


class TestExactSum:
    """dgauss.exact_sum against math.fsum, bit for bit."""

    @given(spread_floats())
    @settings(deadline=None, max_examples=500)
    def test_matches_fsum(self, xs):
        assert same_float(dgauss.exact_sum(np.array(xs, dtype=float)), math.fsum(xs))

    def test_empty(self):
        assert same_float(dgauss.exact_sum(np.zeros(0)), math.fsum([]))
        assert same_float(dgauss.exact_sum([]), 0.0)

    def test_signed_zeros_sum_to_positive_zero(self):
        xs = [-0.0, -0.0]
        assert same_float(dgauss.exact_sum(np.array(xs)), math.fsum(xs))

    def test_ties_round_to_even(self):
        # 1 + 2^-53 lies halfway between 1 and its successor; so does the
        # sum with 2^-52 + 2^-53, which rounds up to the even neighbour
        cases = ([1.0, 2.0**-53], [1.0, 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-120])
        for xs in cases:
            assert same_float(dgauss.exact_sum(np.array(xs)), math.fsum(xs))

    def test_subnormal_results(self):
        xs = [5e-324, 5e-324, -1e-323, 2.5e-308, -2.5e-308, 7e-320]
        assert same_float(dgauss.exact_sum(np.array(xs)), math.fsum(xs))

    @pytest.mark.parametrize("size", [8192, 8193, 3 * 8192 + 5])
    def test_across_chunks(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        assert same_float(dgauss.exact_sum(x), math.fsum(x.tolist()))

    def test_across_small_chunks(self, monkeypatch):
        monkeypatch.setattr(dgauss, "_SUM_CHUNK", 64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
        assert same_float(dgauss.exact_sum(x), math.fsum(x.tolist()))

    def test_reads_any_shape(self):
        x = np.arange(12.0).reshape(3, 4) / 7.0
        assert same_float(dgauss.exact_sum(x), math.fsum(x.ravel().tolist()))
        assert same_float(dgauss.exact_sum([0.1, 0.2, 0.3]), math.fsum([0.1, 0.2, 0.3]))

    @pytest.mark.parametrize(
        "xs",
        [
            [math.inf],
            [1.0, -math.inf],
            [math.nan, 1.0],
            [math.inf, -math.inf],
            [1.7e308, 1.7e308],
            [1e308, -1e308],
            [2.0**1021, 2.0**1021],
        ],
    )
    def test_refuses_non_finite_and_near_overflow(self, xs):
        with pytest.raises(ValueError, match="exact_sum needs finite values"):
            dgauss.exact_sum(np.array(xs))

    def test_largest_accepted_magnitude(self):
        # two values: the bit length of the count is 2, so magnitudes
        # below 2^1021 are accepted and sum exactly as fsum does
        xs = [2.0**1021 * (1.0 - 2.0**-53)] * 2
        assert same_float(dgauss.exact_sum(np.array(xs)), math.fsum(xs))


class TestShapes:
    def test_truncation_policy_certificate(self):
        pol = dgauss.TruncationPolicy.for_gaussian(2, 8.0, 1e-12)
        assert gamma_tail_bound(2, 8.0, pol.radius) <= 1e-12 * (1 + 1e-9)


class TestRhoSum:
    """The Poisson check's Gaussian sum, dgauss._rho_sum, on centered
    boxes."""

    def test_box_growth_below_1e12(self):
        # oracle: compare [-40, 40] against [-80, 80]
        a = dgauss._rho_sum(4.0 * np.eye(1), [(-40, 40)])
        b = dgauss._rho_sum(4.0 * np.eye(1), [(-80, 80)])
        assert abs(a - b) < 1e-12
        assert abs(a - direct_rho(4.0 * np.eye(1), [(-40, 40)])) < 1e-14

    def test_single_origin_term(self):
        assert dgauss._rho_sum(49.0 * np.eye(1), [(0, 0)]) == 1.0

    def test_product_structure(self):
        one = dgauss._rho_sum(4.0 * np.eye(1), [(-40, 40)])
        two = dgauss._rho_sum(4.0 * np.eye(2), [(-40, 40), (-40, 40)])
        assert two == pytest.approx(one * one, rel=1e-14)

    def test_non_diagonal_shape_matches_direct_sum(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.5]])
        got = dgauss._rho_sum(sigma, [(-8, 8), (-8, 8)])
        assert got == pytest.approx(direct_rho(sigma, [(-8, 8), (-8, 8)]), rel=1e-14)

    @given(shapes(), st.integers(0, 8))
    @settings(deadline=None, max_examples=60)
    def test_matches_direct_sum_on_random_shapes(self, sigma, width):
        box = dgauss.auto_box(sigma.shape[0], width)
        assert dgauss._rho_sum(sigma, box) == pytest.approx(
            direct_rho(sigma, box), rel=1e-14
        )


class TestGammaPmf:
    def test_origin_times_normalizer_is_one(self):
        val = gamma_pmf(2.0, [0])
        assert val * dgauss.gamma_normalizer(1, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_ratio_forced_by_mass_function(self):
        ratio = gamma_pmf(2.0, [1]) / gamma_pmf(2.0, [0])
        assert ratio == pytest.approx(math.exp(-math.pi / 4.0), rel=1e-14)

    def test_frozen_value_at_origin(self):
        # oracle: direct truncated summation of rho_2(Z) over [-80, 80]
        assert gamma_pmf(2.0, [0]) == pytest.approx(
            0.4999965126819667, rel=1e-13
        )

    @given(st.sampled_from([1.0, 2.0, 3.5, 8.0, 16.0]), st.sampled_from([1, 2]))
    @settings(deadline=None, max_examples=10)
    def test_normalization(self, R, n):
        box = dgauss.auto_box(n, dgauss.TruncationPolicy.for_gaussian(n, R).radius)
        pts = dgauss.box_points(box)
        total = math.fsum(gamma_pmf(R, p) for p in pts)
        assert abs(total - 1.0) <= 1e-10

    @given(
        st.sampled_from([1.0, 2.0, 5.0]),
        st.lists(st.integers(-20, 20), min_size=1, max_size=3),
    )
    @settings(deadline=None, max_examples=40)
    def test_symmetry(self, R, x):
        assert gamma_pmf(R, x) == gamma_pmf(R, [-v for v in x])

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
                gamma_pmf(R, p) for p, q in zip(pts, norms2) if q > u * u
            )
            assert mass <= gamma_tail_bound(n, R, u) + 1e-15


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
        p = gamma_pmf(2.0, [0])
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("count", [1, 1023, 1025, 20_000])
    def test_matches_generator_batches(self, n, tight, count):
        # the ball of radius 2.9 at R = 2.9 rejects every row with a
        # coordinate of 3; 20 000 rows take more than one stream window
        pol = (
            dgauss.TruncationPolicy(n, 1e-3, 2.9)
            if tight
            else dgauss.TruncationPolicy.for_gaussian(n, 2.9)
        )
        for seed in (0, (5, 2**40)):
            got = dgauss.sample_truncated(2.9, pol, seed, count=count)
            assert np.array_equal(got, batch_sample_truncated(2.9, pol, seed, count))

    def test_acceptance_guard_matches_generator_batches(self, monkeypatch):
        # a ball test that rejects every row trips the 1e-6 guard after
        # the first million rows, in both samplers
        real = dgauss._candidates

        def reject_all(*args):
            cand, inside = real(*args)
            return cand, np.zeros_like(inside)

        monkeypatch.setattr(dgauss, "_candidates", reject_all)
        pol = dgauss.TruncationPolicy.for_gaussian(1, 2.0)
        for sampler in (dgauss.sample_truncated, batch_sample_truncated):
            with pytest.raises(ValueError, match="below 1e-6"):
                sampler(2.0, pol, 3, 1)


def numpy_raw(entropy, count: int, start: int = 0) -> np.ndarray:
    """numpy's own draws start .. start + count - 1 of the entropy's
    stream: PCG64's jump-ahead, then its random_raw."""
    bits = np.random.default_rng(entropy).bit_generator
    bits.advance(start)
    return bits.random_raw(count)


# one and two 32-bit words, the top of 64 bits, and three words
INT_ENTROPY_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5]
# 0, 1 and 2^k +- 1, and 2^k - 3 and 2^k - 2, where the step table (count
# + 3 entries) fills a power of two exactly and where it grows to the next
WINDOW_COUNTS = [0, 1] + [2**k + d for k in range(2, 12) for d in (-3, -2, -1, 1)]
WORDS = st.integers(0, 2**32 - 1)
ENTROPIES = st.one_of(
    st.sampled_from(INT_ENTROPY_EDGES),
    st.integers(0, 2**160),
    st.lists(WORDS, min_size=1, max_size=9).map(tuple),
)


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

    @pytest.mark.parametrize("count", WINDOW_COUNTS)
    def test_int_entropy_edges(self, count):
        got = dgauss.pcg64_raw(INT_ENTROPY_EDGES, count)
        assert got.shape == (len(INT_ENTROPY_EDGES), count)
        for entropy, row in zip(INT_ENTROPY_EDGES, got):
            assert np.array_equal(row, numpy_raw(entropy, count))

    @given(
        st.lists(ENTROPIES, min_size=1, max_size=6),
        st.sampled_from(WINDOW_COUNTS),
        st.one_of(st.integers(0, 5000), st.integers(0, 2**130)),
    )
    @settings(deadline=None, max_examples=150)
    def test_windows_match_numpy(self, batch, count, start):
        # entropies of different word counts share one call, so the
        # words past the fourth are mixed into their own rows only
        got = dgauss.pcg64_raw(batch, count, start)
        assert got.dtype == np.uint64
        for entropy, row in zip(batch, got):
            assert np.array_equal(row, numpy_raw(entropy, count, start))

    @given(ENTROPIES, st.lists(st.sampled_from(WINDOW_COUNTS), max_size=5))
    @settings(deadline=None, max_examples=60)
    def test_windows_continue_across_calls(self, entropy, counts):
        bits = np.random.default_rng(entropy).bit_generator
        start = 0
        for count in counts:
            got = dgauss.pcg64_raw([entropy], count, start)[0]
            assert np.array_equal(got, bits.random_raw(count))
            start += count

    @given(ENTROPIES, st.sampled_from(WINDOW_COUNTS), st.integers(0, 3000))
    @settings(deadline=None, max_examples=60)
    def test_uniforms_match_random(self, entropy, count, start):
        rng = np.random.default_rng(entropy)
        rng.bit_generator.advance(start)
        got = dgauss.pcg64_uniforms([entropy], count, start)[0]
        assert np.array_equal(got, rng.random(count))

    @given(ENTROPIES, st.integers(1, 40))
    @settings(deadline=None, max_examples=60)
    def test_top_63_bits_match_integers(self, entropy, count):
        # the scalar draw integers(2**63), as the decoder and the
        # smoothness check take a noise seed
        rng = np.random.default_rng(entropy)
        want = [int(rng.integers(2**63)) for _ in range(count)]
        assert (dgauss.pcg64_raw([entropy], count)[0] >> 1).tolist() == want

    @given(
        ENTROPIES,
        st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12),
        st.integers(1, 300),
    )
    @settings(deadline=None, max_examples=60)
    def test_choice_indices_match_choice(self, entropy, weights, count):
        p = np.array(weights) / math.fsum(weights)
        rng = np.random.default_rng(entropy)
        want = rng.choice(p.size, size=count, p=p)
        single = rng.choice(p.size, p=p)  # size None: one more draw
        uniforms = dgauss.pcg64_uniforms([entropy], count + 1)[0]
        got = dgauss.choice_indices(p, uniforms)
        assert np.array_equal(got[:count], want)
        assert got[count] == single

    @pytest.mark.parametrize("entropy", [-1, (3, -1)])
    def test_rejects_negative_entropy(self, entropy):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError, match="nonnegative"):
            dgauss.pcg64_raw([0, entropy], 1)

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


def upper_sums(M: np.ndarray) -> tuple[float, float]:
    """sum_z exp(-pi z^T M z) by dgauss._rho_sum, and
    (1 + lambda_min(M)^{-1/2})^n.  A shifted sum never exceeds the
    centered one, so the bound holds at every center once it holds here."""
    n = M.shape[0]
    r = math.sqrt(float(np.linalg.eigvalsh(np.linalg.inv(M))[-1]))
    u = dgauss.TruncationPolicy.for_gaussian(n, max(r, 1.0), 1e-14).radius
    lhs = dgauss._rho_sum(np.linalg.inv(M), dgauss.auto_box(n, u))
    rhs = (1.0 + 1.0 / math.sqrt(float(np.linalg.eigvalsh(M)[0]))) ** n
    return lhs, rhs


class TestMultidimUpper:
    def test_identity_one_dim(self):
        lhs, rhs = upper_sums(np.eye(1))
        assert lhs <= rhs and lhs <= 2.0
        oracle = math.fsum(math.exp(-math.pi * k * k) for k in range(-20, 21))
        assert lhs == pytest.approx(oracle, rel=1e-12)

    def test_point_mass_limit(self):
        lhs, rhs = upper_sums(400.0 * np.eye(1))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.05, abs=1e-9)

    def test_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            M = A @ A.T + 0.1 * np.eye(2)
            lhs, rhs = upper_sums(M)
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


class TestConvDomination:
    def test_one_dim_R2(self):
        chk = dgauss.gamma_conv_domination_check(2.0, 1)
        assert chk.passed and chk.worst_ratio <= 4.0

    def test_ratio_at_origin_below_four(self):
        # oracle: exact convolution at 0 is sum_y gamma_R(y)^2
        R = 2.0
        w = 40
        conv0 = math.fsum(gamma_pmf(R, [y]) ** 2 for y in range(-w, w + 1))
        ratio0 = conv0 / gamma_pmf(math.sqrt(2.0) * R, [0])
        assert ratio0 < 4.0
        chk = dgauss.gamma_conv_domination_check(R, 1)
        assert chk.worst_ratio >= ratio0 - 1e-12

    def test_two_dim_R3(self):
        assert dgauss.gamma_conv_domination_check(3.0, 2).passed

    def test_threshold_enforced(self):
        with pytest.raises(ValueError):
            dgauss.gamma_conv_domination_check(0.5, 4)
