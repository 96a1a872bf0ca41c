"""Spectrum-structure tests.

Oracles: brute-force sign enumeration for dissociation, direct
expectation sums for the Rudin check, direct transform evaluation for
the extraction walkthroughs, exact 1-D summation for the small-ball
check, and the per-point loops of tests/structure_oracle.py for the
array torus distances, the greedy pick, the heavy product set and the
Case 1 witness of the chain growth.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from measure_oracle import from_atoms, restrict
from sketchlab import measure, spectrum
from sketchlab.measure import (
    SparseMeasure,
    _reduce_torus,
    density_certificate,
    fourier_at,
    gamma_truncated,
)
from sketchlab.spectrum import (
    CertifiedBoundError,
    DissociationCapError,
    NearOriginBasis,
    SketchLattice,
    StructureConfig,
    coarse_rudin_check,
    convolution_structure,
    extract_exact_structure,
    extract_near_origin_structure,
    greedy_dissociated_subset,
    is_kappa_dissociated,
    small_ball_check,
    small_ball_exact_1d,
)

SCENARIO = dict(K=512.0, Q=2048, q=3, R=8.0, kappa=0.25, grid_exponent=7)


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
def parity_lattice():
    return extract_exact_structure(parity_measure(), StructureConfig(**SCENARIO))


@functools.cache
def mod3_lattice():
    return extract_exact_structure(mod3_measure(), StructureConfig(**SCENARIO))


def brute_force_dissociated(points, kappa):
    m = len(points)
    for eps in itertools.product((-1, 0, 1), repeat=m):
        if not any(eps):
            continue
        v = np.zeros(len(points[0]))
        for e, p in zip(eps, points):
            v = v + e * np.asarray(p, dtype=float)
        v -= np.floor(v + 0.5)
        if np.linalg.norm(v) < kappa:
            return False
    return True


class TestDissociation:
    def test_single_point_true(self):
        res = is_kappa_dissociated(np.array([[0.3, 0.0]]), 0.25)
        assert res.dissociated and res.witness is None

    def test_repeated_element_witness(self):
        res = is_kappa_dissociated(np.array([[0.3], [0.3]]), 0.25)
        assert not res.dissociated
        assert res.witness == (1, -1)

    def test_zero_element_false(self):
        res = is_kappa_dissociated(np.zeros((1, 2)), 0.1)
        assert not res.dissociated and res.witness == (1,)

    def test_random_six_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = [tuple(rng.uniform(-0.5, 0.5, size=2)) for _ in range(6)]
            got = is_kappa_dissociated(np.array(pts), 0.01)
            assert got.dissociated == brute_force_dissociated(pts, 0.01)

    @settings(max_examples=60, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(
                st.sampled_from([i / 16.0 for i in range(-8, 8)]),
                st.sampled_from([i / 16.0 for i in range(-8, 8)]),
            ),
            min_size=1,
            max_size=5,
        ),
        kappa=st.sampled_from([0.01, 0.1, 0.3]),
    )
    def test_matches_bruteforce(self, pts, kappa):
        got = is_kappa_dissociated(np.array(pts), kappa)
        assert got.dissociated == brute_force_dissociated(pts, kappa)

    def test_witness_is_violation(self):
        pts = [(0.25, 0.0), (0.25, 0.01), (0.1, 0.1)]
        res = is_kappa_dissociated(np.array(pts), 0.2)
        assert not res.dissociated
        v = sum(e * np.asarray(p) for e, p in zip(res.witness, pts))
        v -= np.floor(v + 0.5)
        assert np.linalg.norm(v) < 0.2

    def test_cap_error(self):
        pts = 0.1 + 0.001 * np.arange(21.0).reshape(21, 1)
        with pytest.raises(DissociationCapError):
            is_kappa_dissociated(pts, 0.01)


class TestRudin:
    def test_empty_frequency_set(self):
        chk = coarse_rudin_check(
            gamma_truncated(1, 8.0), np.zeros((0, 1)), [], 0.5, 0.25, 0.1
        )
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.passed

    def test_sigma_zero(self):
        chk = coarse_rudin_check(
            gamma_truncated(1, 8.0), np.array([[0.25]]), [1.0], 0.0, 0.2, 0.1
        )
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.passed

    def test_gamma_quarter_frequency(self):
        g1 = gamma_truncated(1, 8.0)
        lhs_oracle = math.fsum(
            m * math.exp(0.5 * math.cos(2.0 * math.pi * p[0] * 0.25))
            for p, m in g1.atoms.items()
        )
        eta = math.exp(-64.0 * 0.25**2 / 5.0)
        chk = coarse_rudin_check(
            g1, np.array([[0.25]]), [1.0 + 0j], 0.5, 0.25, eta
        )
        assert chk.lhs == pytest.approx(lhs_oracle, rel=1e-12)
        assert chk.lhs == pytest.approx(1.0638147998409209, rel=1e-12)
        assert chk.rhs == pytest.approx(1.8739666737485443, rel=1e-12)
        assert chk.passed

    def test_dissociation_precondition(self):
        with pytest.raises(ValueError, match="dissociated"):
            coarse_rudin_check(
                gamma_truncated(1, 8.0), np.array([[0.2], [0.2]]), [1.0, 1.0], 0.5, 0.25, 0.1
            )

    def test_coefficient_count(self):
        with pytest.raises(ValueError, match="count"):
            coarse_rudin_check(
                gamma_truncated(1, 8.0), np.array([[0.25]]), [], 0.5, 0.2, 0.1
            )


class TestGreedySubset:
    def test_all_equal_keeps_one(self):
        assert len(greedy_dissociated_subset(np.tile([0.3, 0.1], (5, 1)), 0.2)) == 1

    def test_far_apart_all_kept(self):
        pts = np.array([[-0.5, 0.0], [0.0, -0.5]])
        kept = greedy_dissociated_subset(pts, 0.3)
        assert np.array_equal(kept, pts)
        # pairwise-sum oracle: all +/- combinations stay far
        for e1, e2 in itertools.product((-1, 0, 1), repeat=2):
            if e1 == e2 == 0:
                continue
            v = e1 * pts[0] + e2 * pts[1]
            v -= np.floor(v + 0.5)
            assert np.linalg.norm(v) >= 0.3

    def test_half_spectrum_size_bound(self):
        # |subset| <= 14 S for kappa = 5 sqrt(S)/R subsets of Lambda_{1/2}
        from sketchlab.measure import large_spectrum_scan

        mu = parity_measure()
        S = density_certificate(mu, 8.0).S
        scan = large_spectrum_scan(mu, 2.0, 7)
        freqs = scan.zetas
        kappa_paper = 5.0 * math.sqrt(S) / 8.0
        assert len(greedy_dissociated_subset(freqs, kappa_paper)) <= 14.0 * S
        # a desk-scale kappa keeps the bound non-vacuous
        kept = greedy_dissociated_subset(freqs, 0.2)
        assert 1 <= len(kept) <= 14.0 * S

    def test_cap_error_carries_partial(self):
        pts = np.array([[-0.5, 0.0], [0.0, -0.5], [0.25, 0.25], [0.4, 0.1]])
        with pytest.raises(DissociationCapError) as exc:
            greedy_dissociated_subset(pts, 0.05, cap=2)
        assert len(exc.value.partial) == 2


def chained_lattice():
    # 2 t_2 = t_1 (mod Z^2): subgroup generated by (1/4, 1/4)
    return SketchLattice(
        dimension=2,
        generators=(
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        denominators=(2, 2),
        relations=((), (1,)),
        span_error=0.0,
        s_certified=2.0,
    )


class TestSketchLatticeType:
    def test_relation_must_close(self):
        with pytest.raises(ValueError, match="close"):
            SketchLattice(
                dimension=1,
                generators=((Fraction(1, 3),),),
                denominators=(2,),
                relations=((),),
                span_error=0.0,
                s_certified=1.0,
            )

    def test_coefficient_range(self):
        with pytest.raises(ValueError, match="0 <= c_i < k_i"):
            SketchLattice(
                dimension=1,
                generators=((Fraction(1, 2),), (Fraction(1, 4),)),
                denominators=(2, 2),
                relations=((), (2,)),
                span_error=0.0,
                s_certified=2.0,
            )

    def test_rank_cap_enforced(self):
        with pytest.raises(CertifiedBoundError):
            SketchLattice(
                dimension=1,
                generators=((Fraction(1, 2),),),
                denominators=(2,),
                relations=((),),
                span_error=0.0,
                s_certified=0.01,
            )

    def test_combination_points_form_subgroup(self):
        combos = chained_lattice().combination_points()
        got = sorted(tuple(np.round(row, 9)) for row in combos)
        want = sorted(
            [(-0.5, -0.5), (-0.25, -0.25), (0.0, 0.0), (0.25, 0.25)]
        )
        assert got == want


class TestExtractExact:
    def test_gamma_lattice_empty(self):
        cfg = StructureConfig(K=8.0, Q=128, q=3, R=8.0, grid_exponent=7)
        lat = extract_exact_structure(gamma2(), cfg)
        assert lat.rank == 0
        assert lat.fiber_bound == 1
        assert lat.span_error <= lat.kappa

    def test_parity_generator(self):
        lat = parity_lattice()
        assert lat.rank == 1
        assert lat.denominators == (2,)
        assert lat.relations == ((),)
        # torus-exact equality with (1/2, 1/2)
        for c in lat.generators[0]:
            assert (c - Fraction(1, 2)).denominator == 1
        assert lat.span_error < 1e-8
        assert lat.fiber_bound == 2

    def test_even_first_coordinate(self):
        mu = restrict(gamma2(), lambda x: x[0] % 2 == 0, renormalize=True)
        lat = extract_exact_structure(mu, StructureConfig(**SCENARIO))
        assert lat.denominators == (2,)
        t = lat.generators[0]
        assert (t[0] - Fraction(1, 2)).denominator == 1
        assert t[1].denominator == 1

    def test_mod3_generator(self):
        lat = mod3_lattice()
        assert lat.rank == 1
        assert lat.denominators == (3,)
        assert lat.generators[0] == (Fraction(1, 3), Fraction(0))
        assert lat.span_error < 1e-8

    def test_chain_magnitude_floor(self):
        # admitted chain heads keep |mu_hat| >= 1 - 1/K, measured directly
        for mu, lat in (
            (parity_measure(), parity_lattice()),
            (mod3_measure(), mod3_lattice()),
        ):
            assert not any("chain element" in w for w in lat.warnings)
            for t in lat.generators:
                z = _reduce_torus(np.array([float(c) for c in t]))
                assert abs(fourier_at(mu, z)) >= 1.0 - 1.0 / 512.0 - 1e-6

    def test_fiber_product_bound(self):
        for lat in (parity_lattice(), mod3_lattice()):
            S = lat.s_certified
            exponent = 56.0 * S * (1.0 + math.log(2048.0) / math.log(512.0))
            assert lat.fiber_bound <= SCENARIO["q"] ** exponent

    def test_q_window_warning(self):
        cfg = StructureConfig(K=8.0, Q=64, q=3, R=8.0, grid_exponent=7)
        lat = extract_exact_structure(gamma2(), cfg)
        assert any("below the recommended" in w for w in lat.warnings)

    def test_q_range_error(self):
        with pytest.raises(ValueError, match="q"):
            extract_exact_structure(
                gamma2(), StructureConfig(K=8.0, Q=128, q=2, R=8.0)
            )

    def test_congruence_residues(self):
        for lat in (parity_lattice(), mod3_lattice(), chained_lattice()):
            for j, (t, k, rel) in enumerate(
                zip(lat.generators, lat.denominators, lat.relations)
            ):
                res = [
                    k * t[d]
                    - sum(c * lat.generators[i][d] for i, c in enumerate(rel))
                    for d in range(lat.dimension)
                ]
                assert all(r.denominator == 1 for r in res)


def span_distance(lat: SketchLattice, heavy) -> float:
    """Worst torus distance from the rows of `heavy` to the lattice."""
    return float(lat.distance(np.array(heavy, dtype=float)).max())


class TestVerifySpan:
    def test_empty_lattice_ball(self):
        lat = SketchLattice(
            dimension=2,
            generators=(),
            denominators=(),
            relations=(),
            span_error=0.0,
            s_certified=1.0,
        )
        heavy = [(0.01, 0.02), (-0.03, 0.0)]
        # the empty lattice's only combination is the origin
        assert span_distance(lat, heavy) == pytest.approx(0.03, abs=1e-15)

    def test_parity_exact(self):
        assert span_distance(parity_lattice(), [(0.5, 0.5)]) == 0.0

    def test_mod3_doubled_coefficient(self):
        dist = span_distance(mod3_lattice(), [(2.0 / 3.0, 0.0)])
        assert dist < 1e-12

    def test_budget_error(self):
        lat = SketchLattice(
            dimension=1,
            generators=tuple((Fraction(1, 2),) for _ in range(30)),
            denominators=(2,) * 30,
            relations=tuple((0,) * j for j in range(30)),
            span_error=0.0,
            s_certified=0.0,
        )
        with pytest.raises(ValueError, match="budget"):
            lat.combination_points()


@functools.cache
def slab_measure():
    atoms = {}
    for k in range(-24, 25):
        atoms[(k, -k)] = math.exp(-math.pi * (2.0 * k * k) / 64.0)
    tot = math.fsum(atoms.values())
    return from_atoms(2, {p: m / tot for p, m in atoms.items()})


class TestNearOrigin:
    def test_gamma_trivial_basis(self):
        cfg = StructureConfig(K=512.0, Q=2048, R=8.0, B=2.0, kappa=0.25)
        basis = extract_near_origin_structure(gamma2(), cfg)
        assert basis.rank == 0
        assert basis.radius_bound >= cfg.kappa  # the 2 rho >= kappa branch

    def test_slab_diagonal_basis(self):
        mu = slab_measure()
        # transform oracle: the diagonal line is exactly heavy
        for s in (0.1, 0.25, -0.3):
            assert abs(fourier_at(mu, (s, s))) == pytest.approx(1.0, abs=1e-12)
        cfg = StructureConfig(
            K=1e8, Q=2048, R=8.0, B=2.0, kappa=0.25, grid_exponent=7
        )
        basis = extract_near_origin_structure(mu, cfg)
        assert basis.rank == 1
        assert basis.numerators == ((-600, -600),)
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        grid_point = np.round(2048 * u) / 2048.0
        eta = np.asarray(basis.numerators[0], dtype=float) / basis.denominator
        assert np.linalg.norm(_reduce_torus(grid_point - eta)) < 1e-12
        assert 2.0 * basis.rho < cfg.kappa

    def test_kappa_required(self):
        cfg = StructureConfig(K=512.0, Q=2048, R=8.0)
        with pytest.raises(ValueError, match="needs kappa"):
            extract_near_origin_structure(gamma2(), cfg)

    def test_kappa_zero_warning_path(self):
        cfg = StructureConfig(K=512.0, Q=2048, R=8.0, B=2.0, kappa=0.0)
        basis = extract_near_origin_structure(gamma2(), cfg)
        assert basis.rank == 0
        assert any("window" in w for w in basis.warnings)

    def test_ell_cap_error(self):
        with pytest.raises(CertifiedBoundError):
            NearOriginBasis(
                dimension=1,
                numerators=((1,), (2,), (3,)),
                denominator=64,
                radius_bound=0.1,
                s_certified=1.0,
                B=2.0,
            )

    def test_numerator_bound(self):
        with pytest.raises(ValueError, match="Q/2"):
            NearOriginBasis(
                dimension=1,
                numerators=((40,),),
                denominator=64,
                radius_bound=0.1,
            )


class TestSmallBall:
    def test_far_center_no_hits(self):
        A = np.array([[0.05]])
        chk = small_ball_check(A, 16.0, 0.05, [3.0], 50000, seed=5)
        assert chk.hits == 0
        assert chk.passed
        assert chk.bound < 1e-12

    def test_exact_1d_matches_oracle(self):
        R, a, u, b = 16.0, 0.05, 0.02, 0.0
        ys = np.arange(-400, 401)
        w = np.exp(-math.pi * ys.astype(float) ** 2 / (R * R))
        w /= math.fsum(w)
        oracle = math.fsum(w[np.abs(a * ys - b) <= u])
        chk = small_ball_exact_1d(a, R, u, b)
        assert chk.probability == pytest.approx(oracle, rel=1e-12)
        assert chk.probability == pytest.approx(0.0625, abs=1e-4)
        assert chk.passed and chk.probability <= chk.bound

    def test_mc_two_by_two(self):
        A = np.array([[0.04, 0.02], [-0.01, 0.05]])
        chk = small_ball_check(A, 16.0, 0.4, [0.0, 0.1], 100000, seed=11)
        assert chk.trials == 100000
        assert chk.hits == 56646
        assert chk.probability == pytest.approx(chk.hits / chk.trials)
        assert chk.passed

    def test_window_violation(self):
        with pytest.raises(ValueError, match="window"):
            small_ball_check(np.array([[0.05]]), 16.0, 0.01, [3.0], 1000, seed=1)

    def test_report_fields_distinct(self):
        A = np.array([[0.04, 0.02]])
        chk = small_ball_check(A, 16.0, 0.3, [0.0], 20000, seed=2)
        assert chk.trials == 20000
        assert 0 <= chk.hits <= chk.trials
        assert chk.bound > 0.0


class TestConvolution:
    def test_all_gamma_empty(self):
        cells, _ = measure.heavy_cells([gamma2()] * 4, math.exp(-4 / 512.0), 7)
        heavy = _reduce_torus(cells / 2**7)
        assert (np.linalg.norm(heavy, axis=1) <= 0.25).all()
        lat = convolution_structure(
            [gamma2()] * 4, "exact", StructureConfig(**SCENARIO)
        )
        assert lat.rank == 0

    def test_all_parity_generator(self):
        prod = 1.0
        for m in [parity_measure()] * 4:
            prod *= abs(fourier_at(m, (0.5, 0.5)))
        assert prod >= math.exp(-4 / 512.0)
        lat = convolution_structure(
            [parity_measure()] * 4, "exact", StructureConfig(**SCENARIO)
        )
        assert lat.rank == 1
        assert lat.denominators == (2,)
        for c in lat.generators[0]:
            assert (c - Fraction(1, 2)).denominator == 1
        assert lat.span_error < 1e-6

    def test_mixed_product_collapses(self):
        # one unrestricted factor kills the product at (1/2,1/2); the
        # certified heavy set is near-origin only and the lattice is empty
        mus = [gamma2(), parity_measure(), gamma2(), parity_measure()]
        prod = 1.0
        for m in mus:
            prod *= abs(fourier_at(m, (0.5, 0.5)))
        assert prod < math.exp(-4 / 512.0)
        lat = convolution_structure(mus, "exact", StructureConfig(**SCENARIO))
        assert lat.rank == 0
        assert lat.span_error <= 0.25

    def test_near_origin_route(self):
        cfg = StructureConfig(K=512.0, Q=2048, R=8.0, B=2.0, kappa=0.25)
        basis = convolution_structure([gamma2()] * 4, "mollified", cfg)
        assert basis.rank == 0

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="route"):
            convolution_structure([gamma2()], "fancy", StructureConfig(**SCENARIO))


@st.composite
def lattices(draw, n):
    """Lattices whose generators a_j / k_j close with zero relations; rank
    0 is the empty lattice."""
    rank = draw(st.integers(0, 3))
    ks = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    gens = tuple(
        tuple(Fraction(draw(st.integers(-3, 3)), k) for _ in range(n)) for k in ks
    )
    return SketchLattice(
        dimension=n,
        generators=gens,
        denominators=ks,
        relations=tuple((0,) * j for j in range(rank)),
        span_error=0.0,
        s_certified=0.0,
    )


def rows(n, max_rows=12, bound=1.0):
    return st.lists(
        st.lists(st.floats(-bound, bound), min_size=n, max_size=n),
        min_size=0,
        max_size=max_rows,
    ).map(lambda r: np.array(r, dtype=float).reshape(len(r), n))


class TestArrayPathsMatchOracles:
    """The structure distances, the greedy pick and the heavy product set
    against the per-point loops they replaced (tests/structure_oracle.py).
    On n <= 2 every torus distance is a sum of at most two squares, so the
    array path returns the loop's bits."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2))
    def test_lattice_distance_is_the_per_point_loop(self, data, n):
        lat = data.draw(lattices(n))
        zetas = data.draw(rows(n))
        combos = lat.combination_points()
        want = [oracle.torus_distance_to_set(z, combos) for z in zetas]
        assert lat.distance(zetas).tolist() == want

    def test_lattice_distance_blocks_give_the_same_rows(self, monkeypatch):
        zetas = np.random.default_rng(1).uniform(-1, 1, size=(40, 2))
        whole = chained_lattice().distance(zetas)
        monkeypatch.setattr(spectrum, "_BLOCK_CELLS", 3 * 4 * 2)
        assert np.array_equal(chained_lattice().distance(zetas), whole)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_basis_distance_is_the_per_vector_lstsq(self, data, n):
        Q = 64
        ell = data.draw(st.integers(0, n))
        numerators = tuple(
            tuple(data.draw(st.integers(-Q // 2, Q // 2)) for _ in range(n))
            for _ in range(ell)
        )
        basis = NearOriginBasis(
            dimension=n, numerators=numerators, denominator=Q, radius_bound=0.1
        )
        zetas = data.draw(rows(n, bound=0.5))
        want = [
            oracle.span_residual(basis.span_matrix(), a) for a in _reduce_torus(zetas)
        ]
        assert basis.distance(zetas) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 2),
        kappa=st.sampled_from([0.01, 0.1, 0.3]),
    )
    def test_greedy_pick_is_the_first_far_row(self, data, n, kappa):
        heavy = data.draw(rows(n, bound=0.5))
        chain = data.draw(rows(n, max_rows=3, bound=0.5))
        combos = spectrum.signed_combinations(chain)
        far = np.flatnonzero(spectrum._torus_distance(heavy, combos) > kappa)
        want = oracle.first_far(heavy, combos, kappa)
        assert (int(far[0]) if far.size else None) == want

    @settings(max_examples=40, deadline=None)
    @given(
        atoms=st.lists(
            st.lists(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=3,
        ),
        threshold=st.sampled_from([0.1, 0.5, 0.9]),
        grid_exponent=st.integers(3, 4),
    )
    def test_heavy_cells_is_the_per_index_loop(self, atoms, threshold, grid_exponent):
        mus = [SparseMeasure.uniform(pts) for pts in atoms]
        cells, values = measure.heavy_cells(mus, threshold, grid_exponent)
        got = _reduce_torus(cells / 2**grid_exponent)
        want = oracle.heavy_frequencies(mus, threshold, grid_exponent)
        assert list(map(tuple, got.tolist())) == want
        prod = oracle.heavy_product(mus, grid_exponent)
        assert values.tobytes() == prod[tuple(cells.T)].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 2),
        q=st.integers(3, 5),
        r_star=st.integers(1, 3),
        kappa=st.floats(0.02, 0.3),
    )
    def test_chain_witness_is_the_searched_one(self, data, n, q, r_star, kappa):
        # the extractor's chain set is dissociated before each pick
        base = greedy_dissociated_subset(
            data.draw(rows(n, max_rows=3, bound=0.5)), kappa
        )
        coordinate = st.floats(-0.5, 0.5)
        pick = np.array(data.draw(st.lists(coordinate, min_size=n, max_size=n)))
        if data.draw(st.booleans()):
            # near a signed combination of the chain set: the first step fails
            sign = st.sampled_from([-1.0, 0.0, 1.0])
            signs = data.draw(st.lists(sign, min_size=len(base), max_size=len(base)))
            pick = np.asarray(signs) @ base + 0.01 * pick
        pick = _reduce_torus(pick)
        r, witness = spectrum._grow_chain(pick, base, q, r_star, kappa)
        want_r, want = oracle.chain_length_and_witness(pick, base, q, r_star, kappa)
        assert r == want_r
        if want is None:
            assert r == r_star and witness is None
        else:
            assert witness[0] == 1
            assert (witness[1 : r + 1], witness[r + 1 :]) == want


def equal_law_pieces():
    """Four pieces, two of them equal in content to the first but
    separate objects."""
    a = SparseMeasure(1, np.array([[0], [1], [3]]), np.array([0.5, 0.25, 0.25]))
    b = SparseMeasure.uniform([(0,), (2,)])
    return [a, b, SparseMeasure(1, a.points.copy(), a.masses.copy()), a]


def spy_on(monkeypatch, owner, name):
    """The first argument of every later call to owner.name, in order."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestEqualLawsTransformOnce:
    """Equal laws share one transform in both FFT products, and the
    product keeps the bits of transforming every piece."""

    def test_convolve_many_fft(self, monkeypatch):
        # a three times and b once: one transform each on the least
        # power-of-two side over the 12-cell span, multiplied law by law
        # in first-seen order
        a, b, _, _ = mus = equal_law_pieces()
        transforms = spy_on(monkeypatch, np.fft, "rfftn")
        products = spy_on(monkeypatch, np.fft, "irfftn")
        measure.convolve_many_fft(mus)
        monkeypatch.undo()
        assert len(transforms) == 2
        assert np.array_equal(transforms[0], measure._grid_embed(a, (16,)))
        assert np.array_equal(transforms[1], measure._grid_embed(b, (16,)))
        A, B = (np.fft.rfftn(measure._grid_embed(m, (16,))) for m in (a, b))
        (got,) = products
        assert got.tobytes() == (((A * A) * A) * B).tobytes()

    def test_heavy_cells(self, monkeypatch):
        mus = equal_law_pieces()
        want = oracle.heavy_product(mus, 3)
        transforms = spy_on(monkeypatch, np.fft, "rfftn")
        cells, values = measure.heavy_cells(mus, 0.5, 3)
        monkeypatch.undo()
        assert len(transforms) == 2
        assert cells.tolist() == np.argwhere(want >= 0.5).tolist()
        assert values.tobytes() == want[tuple(cells.T)].tobytes()
        # cell c is heavy at level t exactly when prod[c] >= t: it is in
        # at its own value and out at the next float up
        for c, value in enumerate(want.tolist()):
            at, _ = measure.heavy_cells(mus, value, 3)
            above, _ = measure.heavy_cells(mus, np.nextafter(value, np.inf), 3)
            assert [c] in at.tolist() and [c] not in above.tolist()
