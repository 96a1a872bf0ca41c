"""Acceptance suite: one test per criterion, one pass/fail line under -v.

Oracles behind the frozen expectations: scenario-scale runs of the full
pipeline recorded generator/denominator/relation values before they were
asserted here (parity at eight blocks selects the all-zero boundary
sequence and yields the half-integer generator with k = 2 and an empty
relation row; mod-3 at four blocks yields exactly (1/3, 0) with k = 3);
coset rigidity was measured as bit-exact equality between the shift TV
and the retained convolution mass next to an exact support-disjointness
check, with the FFT-dust deficit below 1e-9 at every swept radius; the
small-ball battery reuses the runner's fixed instances at a million
trials; reproducibility compares rerun bytes, not intent.
"""

import csv
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from structure_oracle import sketch_value_add
from sketchlab import measure
from sketchlab.cli import (
    ExperimentConfig,
    _smallball_instances,
    get_scenario,
    main,
    transfer_config,
)
from sketchlab.dgauss import (
    gamma_conv_domination_check,
    poisson_identity_check,
)
from sketchlab.measure import (
    SparseMeasure,
    density_certificate,
    fourier_many,
    gamma_truncated,
    large_spectrum_scan,
)
from sketchlab.spectrum import (
    StructureConfig,
    coarse_rudin_check,
    greedy_dissociated_subset,
    is_kappa_dissociated,
    small_ball_check,
    small_ball_exact_1d,
)
from sketchlab.streaming import posterior_laws, select_state_sequence
from sketchlab.transfer import (
    evaluate_sketch,
    extract_sketch,
    sketch_apply,
)
from sketchlab.translation import (
    line_decomposition,
    translation_invariance_certify,
    tv_distance,
)
from sketchlab.measure import convolve_many_fft


def budget(limit: float, start: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion exceeded its {limit:g}s budget: {elapsed:.1f}s"


@cache
def run_scenario(name: str, route: str, blocks: int, Q: int, seed: int):
    cfg = ExperimentConfig(M=blocks, Q=Q, seed=seed, route=route)
    scenario = get_scenario(name)
    alg, target = scenario.algorithm, scenario.target
    problem = scenario.problem(cfg)
    sketch, decoder, report = extract_sketch(
        alg, target, problem, route, transfer_config(cfg, scenario), seed
    )
    result = evaluate_sketch(sketch, decoder, target, problem)
    return sketch, decoder, report, result


def test_c01_fourier_decay():
    start = time.perf_counter()
    ts = np.arange(4096) / 4096
    zetas = ts.reshape(-1, 1)
    dist = np.minimum(ts, 1.0 - ts)
    for R in (2.0, 4.0, 8.0, 16.0, 32.0):
        mags = np.abs(fourier_many(gamma_truncated(1, R), zetas))
        bound = np.exp(-R * R * dist * dist / 5.0) + 1e-9
        assert np.all(mags <= bound), f"decay violated at R={R}"
    budget(5.0, start)


def test_c02_poisson_summation():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for i in range(50):
        n = 1 + (i % 2)
        A = rng.normal(size=(n, n)) * rng.uniform(0.5, 1.5)
        M = A @ A.T / n + 0.25 * np.eye(n)
        chk = poisson_identity_check(M)
        assert chk.relative_error <= 1e-8, f"instance {i}: {chk.relative_error}"
    budget(5.0, start)


def test_c03_gamma_domination():
    start = time.perf_counter()
    for n, R in product((1, 2), (2.0, 4.0, 8.0)):
        chk = gamma_conv_domination_check(R, n)
        assert chk.passed and chk.worst_ratio <= 4.0, f"n={n} R={R}"
    budget(5.0, start)


def test_c04_coarse_rudin():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    nu = gamma_truncated(2, 8.0)
    kappa = 0.15
    eta = math.exp(-64.0 * kappa * kappa / 5.0) + 1e-9
    sigmas = (0.25, 0.5, 1.0)
    done = 0
    while done < 20:
        size = 1 + int(rng.integers(4))
        pts = 0.45 * (2.0 * rng.random((size, 2)) - 1.0)
        T = pts[np.linalg.norm(pts, axis=1) >= 0.2]
        if len(T) != size or not is_kappa_dissociated(T, kappa).dissociated:
            continue
        c = rng.uniform(0.2, 1.0, size) * np.exp(2j * math.pi * rng.random(size))
        chk = coarse_rudin_check(nu, T, c, sigmas[done % 3], kappa, eta)
        assert chk.lhs <= chk.rhs + 1e-9, f"instance {done}"
        done += 1
    budget(5.0, start)


def test_c05_dissociated_size_bound():
    start = time.perf_counter()
    base = gamma_truncated(2, 8.0)
    rng = np.random.default_rng(5)
    alphas = (0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125, 0.125, 0.125)
    for i, alpha in enumerate(alphas):
        mask = rng.random(base.support_size) < alpha
        mask[int(np.argmax(base.masses))] = True
        total = float(base.masses[mask].sum())
        mu = SparseMeasure(2, base.points[mask], base.masses[mask] / total)
        cert = density_certificate(mu, 8.0)
        kappa = 5.0 * math.sqrt(cert.S) / 8.0
        scan = large_spectrum_scan(mu, 512.0, 7)
        cap = int(14.0 * math.log2(2.0 / alpha)) + 8
        kept = greedy_dissociated_subset(scan.zetas, kappa, cap=cap)
        assert len(kept) <= 14.0 * math.log2(2.0 / alpha), f"piece {i}"
    budget(5.0, start)


def test_c06_small_ball():
    start = time.perf_counter()
    exact = small_ball_exact_1d(0.05, 8.0, 0.02, 0.0)
    assert exact.passed and exact.probability <= exact.bound
    for i, (name, A, u, b) in enumerate(_smallball_instances(ExperimentConfig())):
        chk = small_ball_check(A, 8.0, u, b, 1_000_000, seed=60 + i)
        assert chk.trials == 1_000_000
        assert chk.probability <= chk.bound + 3.0 * chk.stderr + 1e-3, name
        assert chk.passed, name
    budget(5.0, start)


def test_c07_line_parseval():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    shifts = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))
    for i in range(20):
        if i % 2 == 0:
            nu = gamma_truncated(2, float(rng.uniform(3.0, 10.0)))
        else:
            pts = rng.integers(-6, 7, size=(25, 2))
            w = rng.random(len(pts)) + 0.05
            w /= w.sum()
            nu = SparseMeasure(2, pts, w)
        dec = line_decomposition(nu, shifts[i % len(shifts)])
        direct = dec.total_energy
        quad = math.fsum(dec.quadrature_energies)
        assert abs(direct - quad) <= 1e-6 * max(direct, 1e-12), f"triple {i}"
    budget(5.0, start)


def test_c08_ball_reduction_tv():
    start = time.perf_counter()
    structure = StructureConfig(K=512.0, Q=2048, R=8.0, kappa=0.25)
    unrestricted = translation_invariance_certify(
        [gamma_truncated(2, 8.0)] * 8,
        "exact",
        structure,
        4,
        max_kernel=64,
    )
    kernels = [r for kind, r in unrestricted.records if kind == "kernel"]
    assert len(kernels) == 24
    assert all(r.actual_tv <= r.bound + 1e-9 for r in kernels)
    _, _, report, _ = run_scenario("parity", "exact", 8, 2048, 0)
    parity_kernels = [r for kind, r in report.translation.records if kind == "kernel"]
    assert parity_kernels
    assert all(r.actual_tv <= r.bound + 1e-9 for r in parity_kernels)
    budget(5.0, start)


def test_c09_parity_extraction():
    start = time.perf_counter()
    sketch, decoder, report, result = run_scenario("parity", "exact", 8, 2048, 0)
    lattice = sketch.structure
    assert lattice.denominators == (2,)
    assert lattice.relations == ((),)
    (gen,) = lattice.generators
    for coord in gen:
        assert min(abs(float(coord) - 0.5), abs(float(coord) + 0.5)) <= 1.0 / 2048
    assert result.success == 1.0
    budget(5.0, start)


def test_c10_mod3_extraction():
    start = time.perf_counter()
    sketch, decoder, report, result = run_scenario("mod-3", "exact", 4, 2048, 7)
    lattice = sketch.structure
    assert lattice.denominators == (3,)
    (gen,) = lattice.generators
    targets = (Fraction(1, 3), Fraction(0))
    for coord, want in zip(gen, targets):
        dist = abs(float(coord) - float(want))
        assert min(dist, 1.0 - dist) <= 1.0 / 2048
    assert result.success == 1.0
    budget(5.0, start)


def test_c11_constant_dimension_and_sweep(tmp_path):
    start = time.perf_counter()
    sketch, _, _, _ = run_scenario("constant", "exact", 2, 2048, 3)
    assert sketch.structure.rank == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n = 2\nM = 2\nsweep = 4, 8, 16\nseed = 3\nscenario = constant\n")
    assert main(["tv-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "tv_sweep.csv").read_text().splitlines()
    rows = list(csv.reader(lines[2:]))
    assert rows and all(r[4] == "kernel" for r in rows)
    assert all(r[7] == "decreasing" for r in rows)
    budget(5.0, start)


def test_c12_parity_coset_rigidity():
    start = time.perf_counter()
    scenario = get_scenario("parity")
    cfg = ExperimentConfig(M=2, seed=11)
    alg, target = scenario.algorithm, scenario.target
    problem = scenario.problem(cfg)
    for R in (4.0, 8.0, 16.0):
        sigma = select_state_sequence(
            alg, target, problem, R, 2, 512, 11, threshold=0.125
        )
        nu = convolve_many_fft(posterior_laws(alg, sigma, R, 2))
        support = set(nu.atoms)
        assert nu.total_mass >= 1.0 - 1e-9
        for v in ((0, 1), (1, 0), (1, -2), (3, 0)):
            shifted = {(p[0] + v[0], p[1] + v[1]) for p in support}
            assert not (support & shifted), f"R={R} v={v}: supports meet"
            assert tv_distance(nu, v) == nu.total_mass, f"R={R} v={v}"
    budget(5.0, start)


def test_c13_mollified_extraction():
    start = time.perf_counter()
    sketch, decoder, report, result = run_scenario("capped-norm", "mollified", 2, 8, 11)
    assert report.smoothness is not None and report.smoothness.passed
    assert sketch.structure.denominator == 8
    assert sketch.structure.entry_bound <= 8
    exact_sketch, _, _, _ = run_scenario("capped-norm", "exact", 2, 2048, 11)
    assert sketch.structure.rank <= exact_sketch.structure.rank
    assert result.success >= 0.9
    budget(5.0, start)


def test_c14_homomorphism_and_reproducibility(tmp_path):
    start = time.perf_counter()
    sketches = [
        run_scenario("parity", "exact", 8, 2048, 0)[0],
        run_scenario("mod-3", "exact", 4, 2048, 7)[0],
        run_scenario("constant", "exact", 2, 2048, 3)[0],
        run_scenario("capped-norm", "mollified", 2, 8, 11)[0],
    ]
    rng = np.random.default_rng(14)
    for sketch in sketches:
        for _ in range(1000):
            y1 = tuple(int(c) for c in rng.integers(-20, 21, size=2))
            y2 = tuple(int(c) for c in rng.integers(-20, 21, size=2))
            combined = sketch_apply(sketch, tuple(a + b for a, b in zip(y1, y2)))
            split = sketch_value_add(
                sketch, sketch_apply(sketch, y1), sketch_apply(sketch, y2)
            )
            assert combined == split
    for rerun in ("one", "two"):
        assert main(["smallball", "--seed", "5", "--out", str(tmp_path / rerun)]) == 0
    body = lambda d: (tmp_path / d / "smallball.csv").read_text().splitlines()[1:]
    assert body("one") == body("two")
    assert (tmp_path / "one" / "smallball.json").read_bytes() == (
        tmp_path / "two" / "smallball.json"
    ).read_bytes()
    budget(5.0, start)


def test_c15_scan_polish_at_a_low_threshold(monkeypatch):
    # K = 8 puts the convolution structure's scan threshold at 1 - 4/K, so
    # nearly every cell of its grid is a hit: about 700 hits to polish,
    # the scan polish's worst known case
    start = time.perf_counter()
    polished: list[int] = []
    polish = measure._polish

    def counted(mu, starts, step):
        polished.append(len(starts))
        return polish(mu, starts, step)

    monkeypatch.setattr(measure, "_polish", counted)
    cfg = ExperimentConfig(
        M=2, K=8.0, Q=8, seed=0, scenario="capped-norm", route="mollified"
    )
    scenario = get_scenario("capped-norm")
    sketch, _, report = extract_sketch(
        scenario.algorithm,
        scenario.target,
        scenario.problem(cfg),
        "mollified",
        transfer_config(cfg, scenario),
        cfg.seed,
    )
    assert report.smoothness is not None and report.smoothness.passed
    assert sketch.structure.denominator == 8
    assert sketch.structure.entry_bound <= 8
    assert sum(polished) >= 500
    budget(5.0, start)


# extract in a child interpreter, then print its own peak RSS (KiB on Linux)
LONG_STREAM_PROBE = """\
import resource, sys
from sketchlab.cli import main
code = main(["extract", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_c16_long_stream_extraction(tmp_path):
    # parity at M = 64 blocks (K = 12, seed 0, desk config otherwise): a
    # product of 64 pieces, which fits its budget only when the grid is
    # sized by the tail window rather than the summed support span
    start = time.perf_counter()
    root = Path(__file__).resolve().parents[1]
    desk = (root / "configs" / "desk.cfg").read_text()
    cfg = tmp_path / "long.cfg"
    cfg.write_text(desk.replace("M = 8", "M = 64").replace("K = 512", "K = 12"))
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LONG_STREAM_PROBE, str(cfg), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    code, peak_kib = done.stdout.splitlines()[-1].split()
    assert code == "0"
    lines = (tmp_path / "out" / "extract.csv").read_text().splitlines()
    (row,) = csv.DictReader(lines[1:])
    assert (row["M"], row["dimension"], row["success"]) == ("64", "1", "1")
    assert int(peak_kib) / 1024 < 500, f"peak RSS {int(peak_kib) / 1024:.0f} MB"
    budget(5.0, start)
