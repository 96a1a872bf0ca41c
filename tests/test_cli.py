"""Experiment runner tests.

Oracles: window floors recomputed by hand, CSV cells cross-checked
against the same pipeline driven directly through the library API with
identical seeds, trend labels recomputed from the swept rows, and
reproducibility measured byte-for-byte on rerun output.
"""

import csv
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streaming_oracle import same_laws
from sketchlab import cli, streaming, transfer, translation
from sketchlab.cli import (
    KAPPA_FLOOR,
    SCENARIOS,
    TABLE_SCHEMAS,
    ConfigError,
    ExperimentConfig,
    UsageError,
    _cell,
    _trend,
    get_scenario,
    load_config,
    main,
    parse_config_text,
    transfer_config,
    write_table,
)
from sketchlab.measure import gamma_truncated
from sketchlab.streaming import SelectionFailed, posterior_laws, select_state_sequence
from sketchlab.spectrum import CertifiedBoundError, chain_length_cap
from sketchlab.transfer import (
    TransferConfig,
    evaluate_sketch,
    extract_sketch,
    extraction_from_text,
    sketch_apply,
)


_SUITE_DIR: list[Path] = []


@pytest.fixture(autouse=True, scope="module")
def _suite_dir(tmp_path_factory):
    # the configs and outputs the cached runs share, under pytest's
    # retention-managed temporary root
    _SUITE_DIR[:] = [tmp_path_factory.mktemp("sketchlab-cli")]


def suite_dir() -> Path:
    return _SUITE_DIR[0]


def write_cfg(name: str, text: str) -> Path:
    path = suite_dir() / name
    path.write_text(text)
    return path


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# "), "timestamp comment must lead the file"
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


@cache
def parity_run() -> tuple[int, Path]:
    cfg = write_cfg(
        "parity.cfg", "n = 2\nR = 8.0\nM = 2\nseed = 11\nscenario = parity\n"
    )
    out = suite_dir() / "parity"
    code = main(["extract", "--config", str(cfg), "--out", str(out)])
    return code, out


@cache
def mollified_run() -> tuple[int, Path]:
    cfg = write_cfg(
        "moll.cfg",
        "n = 2\nM = 2\nQ = 8\nseed = 11\nscenario = capped-norm\nroute = mollified\n",
    )
    out = suite_dir() / "moll"
    code = main(["extract", "--config", str(cfg), "--out", str(out)])
    return code, out


@cache
def constant_sweep_run() -> tuple[int, Path]:
    cfg = write_cfg(
        "csweep.cfg", "n = 2\nM = 2\nsweep = 4, 8\nseed = 3\nscenario = constant\n"
    )
    out = suite_dir() / "csweep"
    code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
    return code, out


@cache
def parity_sweep_run() -> tuple[int, Path]:
    cfg = write_cfg(
        "psweep.cfg", "n = 2\nM = 2\nsweep = 4, 8\nseed = 11\nscenario = parity\n"
    )
    out = suite_dir() / "psweep"
    code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
    return code, out


@cache
def lemmas_run() -> tuple[int, Path]:
    cfg = write_cfg("lemmas.cfg", "n = 2\nM = 2\nseed = 11\n")
    out = suite_dir() / "lemmas"
    code = main(["verify-lemmas", "--config", str(cfg), "--out", str(out)])
    return code, out


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n == 2 and cfg.R == 8.0 and cfg.M == 8
        assert cfg.sweep == () and cfg.kappa == 0.25
        assert cfg.selection_threshold is None
        assert cfg.scenario == "parity" and cfg.route == "exact"

    def test_parse_sections_and_comments(self):
        values = parse_config_text(
            "[stream]\n"
            "n = 2          # dimension\n"
            "R = 4.5\n"
            "; a lone comment\n"
            "sweep = 4, 8 16\n"
            "kappa = none\n"
            "scenario = mod-3\n"
        )
        assert values == {
            "n": 2,
            "R": 4.5,
            "sweep": (4.0, 8.0, 16.0),
            "kappa": None,
            "scenario": "mod-3",
        }

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'radius'"):
            parse_config_text("n = 2\nradius = 8\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: expected key = value"):
            parse_config_text("just words\n")

    def test_empty_sweep_is_an_error(self):
        with pytest.raises(ConfigError, match="sweep list is empty"):
            parse_config_text("sweep =\n")

    def test_window_violations_consolidated(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kappa=0.001, q=0, route="warp", delta=1.5)
        msg = str(err.value)
        assert "4 configuration window violation(s)" in msg
        assert "kappa 0.001 is below the scan resolution floor" in msg
        assert "q must be at least 1" in msg
        assert "unknown route 'warp'" in msg
        assert "delta must lie in [0, 1)" in msg

    def test_kappa_floor_is_two_grid_cells(self):
        assert KAPPA_FLOOR == 2.0 ** (-6)
        ExperimentConfig(kappa=KAPPA_FLOOR)
        with pytest.raises(ConfigError, match="scan resolution floor"):
            ExperimentConfig(kappa=KAPPA_FLOOR * 0.99)

    def test_selection_threshold_window(self):
        ExperimentConfig(selection_threshold=1.0)
        with pytest.raises(ConfigError, match="selection_threshold"):
            ExperimentConfig(selection_threshold=0.0)

    def test_load_config_missing_file(self):
        with pytest.raises(UsageError, match="config file not found"):
            load_config(suite_dir() / "nope.cfg")

    def test_load_config_overrides(self):
        path = write_cfg("base.cfg", "seed = 1\nscenario = parity\n")
        cfg = load_config(path, seed=9, scenario="constant", route="mollified")
        assert cfg.seed == 9
        assert cfg.scenario == "constant"
        assert cfg.route == "mollified"


# The per-block state fan-out each scenario's registry entry used to
# declare; the cut selection derives must be 0.5 * b**-M with these b.
BRANCHING = {"parity": 2, "mod-3": 3, "constant": 1, "adversarial": 2, "capped-norm": 2}
RADII = (1.0, 2.0, 4.0, 8.0, 16.0)
BLOCKS = (1, 2, 3, 4, 8)


def derived_cut(name: str, R: float, M: int, seed: int) -> float:
    """The cut selection derives for a registry scenario, read off the
    selected sequence or the failure.  The survivors' success estimates
    play no part in the cut, so they are stubbed out to keep the grid
    cheap."""
    scenario = get_scenario(name)
    problem = scenario.problem(ExperimentConfig())
    with mock.patch.object(streaming, "_success_estimate", lambda *args: 0.0):
        try:
            return select_state_sequence(
                scenario.algorithm, scenario.target, problem, R, M, cli.SAMPLES, seed
            ).threshold
        except SelectionFailed as exc:
            return exc.threshold


class TestRegistry:
    def test_unknown_scenario_lists_registry(self):
        with pytest.raises(UsageError) as err:
            get_scenario("nosuch")
        msg = str(err.value)
        assert "unknown scenario 'nosuch'" in msg
        for name in SCENARIOS:
            assert name in msg

    def test_threshold_matches_branching(self):
        # every registry scenario at every R and M of the grid, seed 0
        for name, R, M in itertools.product(BRANCHING, RADII, BLOCKS):
            assert derived_cut(name, R, M, 0) == 0.5 * float(BRANCHING[name]) ** -M

    @given(
        st.sampled_from(sorted(BRANCHING)),
        st.sampled_from(RADII),
        st.sampled_from(BLOCKS),
        st.integers(0, 2**64),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_matches_branching_at_any_seed(self, name, R, M, seed):
        assert derived_cut(name, R, M, seed) == 0.5 * float(BRANCHING[name]) ** -M

    def test_pinned_threshold_overrides_the_derived_cut(self):
        scenario = get_scenario("mod-3")
        cfg = ExperimentConfig(M=2, selection_threshold=0.1)
        assert transfer_config(cfg, scenario).selection_threshold == 0.1
        sigma = select_state_sequence(
            scenario.algorithm, scenario.target, scenario.problem(cfg), cfg.R,
            cfg.M, cli.SAMPLES, cfg.seed, threshold=0.1,
        )
        assert sigma.threshold == 0.1

    def test_library_default_cut_extracts_mod3(self):
        # a binary cut, 0.5 * 2**-3, rejected every mod-3 sequence here:
        # the best census share is 24/512
        scenario = get_scenario("mod-3")
        sketch, _, _ = extract_sketch(
            scenario.algorithm, scenario.target,
            scenario.problem(ExperimentConfig()), "exact",
            TransferConfig(blocks=3, label="mod-3"), 0,
        )
        assert sketch.structure.rank == 1
        assert sketch.sigma.threshold == 0.5 * 3.0**-3
        assert sketch.provenance.selection_threshold == sketch.sigma.threshold

    def test_transfer_config_mapping(self):
        cfg = ExperimentConfig(R=4.0, M=3, D=2, Q=64, seed=5)
        tcfg = transfer_config(cfg, get_scenario("parity"))
        assert tcfg.radius == 4.0 and tcfg.blocks == 3
        assert tcfg.diameter == 2 and tcfg.Q == 64
        assert tcfg.label == "parity"
        # unset, so selection derives the cut from its census
        assert tcfg.selection_threshold is None

    def test_transfer_config_dimension_mismatch(self):
        with pytest.raises(UsageError, match="2-dimensional"):
            transfer_config(ExperimentConfig(n=1), get_scenario("parity"))

    def test_scenarios_are_well_formed(self):
        cfg = ExperimentConfig()
        for scenario in SCENARIOS.values():
            problem = scenario.problem(cfg)
            assert scenario.target.dimension == scenario.algorithm.dimension
            assert problem.kind in ("promise", "metric-approximation")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_selected_laws_are_the_posterior_laws_at_the_desk_config(self, name):
        # oracle: posterior_laws rebuilds the winner's laws from a table
        # of its own
        root = Path(__file__).resolve().parents[1]
        cfg = replace(load_config(root / "configs" / "desk.cfg"), scenario=name)
        scenario = get_scenario(name)
        alg = scenario.algorithm
        sigma = select_state_sequence(
            alg, scenario.target, scenario.problem(cfg), cfg.R, cfg.M,
            cli.SAMPLES, cfg.seed,
            threshold=transfer_config(cfg, scenario).selection_threshold,
        )
        assert len(sigma.laws) == cfg.M
        assert same_laws(sigma.laws, posterior_laws(alg, sigma, cfg.R, cfg.M))

    def test_capped_norm_cap_follows_config(self):
        wide = SCENARIOS["capped-norm"].problem(ExperimentConfig(R=8.0))
        assert wide.epsilon == 16.0
        assert wide.target((100, 0)) == 16.0
        narrow = SCENARIOS["capped-norm"].problem(ExperimentConfig(epsilon=5.0))
        assert narrow.epsilon == 5.0
        assert narrow.target((3, 4)) == 5.0


class TestTables:
    def test_cell_formats(self):
        assert _cell(0.125) == "0.125"
        assert _cell(True) == "true"
        assert _cell(False) == "false"
        assert _cell((1, -1)) == "(1,-1)"
        assert _cell(float("nan")) == ""
        assert _cell(None) == ""
        assert _cell(7) == "7"

    def test_write_table_shape(self, tmp_path):
        rows = [("a", 0.5, True), ("b", float("nan"), False)]
        path = write_table(tmp_path, "demo", ("name", "x", "ok"), rows)
        header, body = read_table(path)
        assert header == ["name", "x", "ok"]
        assert body == [["a", "0.5", "true"], ["b", "", "false"]]
        payload = json.loads((tmp_path / "demo.json").read_text())
        assert set(payload) == {"table", "columns", "rows"}
        assert payload["rows"][1]["x"] is None

    def test_rerun_bodies_identical(self, tmp_path):
        rows = [("a", 1.0 / 3.0, 42)]
        write_table(tmp_path / "one", "t", ("k", "v", "n"), rows)
        write_table(tmp_path / "two", "t", ("k", "v", "n"), rows)
        one = (tmp_path / "one" / "t.csv").read_text().splitlines()[1:]
        two = (tmp_path / "two" / "t.csv").read_text().splitlines()[1:]
        assert one == two
        assert (tmp_path / "one" / "t.json").read_bytes() == (
            tmp_path / "two" / "t.json"
        ).read_bytes()

    def test_trend_labels(self):
        assert _trend([3.0, 2.0, 1.0]) == "decreasing"
        assert _trend([1.0, 2.0]) == "increasing"
        assert _trend([1.0, 1.0, 1.0]) == "flat"
        assert _trend([1.0, 2.0, 1.5]) == "mixed"
        assert _trend([1.0]) == ""


class TestVerifyLemmas:
    def test_all_checks_pass(self):
        code, out = lemmas_run()
        assert code == 0
        header, rows = read_table(out / "lemmas.csv")
        assert header == [c for c, _ in TABLE_SCHEMAS["lemmas"]]
        assert rows and all(r[5] == "true" for r in rows)

    def test_expected_families_present(self):
        _, out = lemmas_run()
        _, rows = read_table(out / "lemmas.csv")
        assert {r[0] for r in rows} == {
            "fourier-decay",
            "poisson-summation",
            "gamma-domination",
            "coarse-rudin",
            "dissociated-bound",
            "small-ball",
            "line-parseval",
            "spectral-energy",
            "ball-reduction",
            "convolution-tail",
        }

    def test_margin_column_consistent(self):
        _, out = lemmas_run()
        _, rows = read_table(out / "lemmas.csv")
        for row in rows:
            lhs, rhs, margin = (float(row[i]) for i in (2, 3, 4))
            assert margin == pytest.approx(rhs - lhs, abs=1e-12)

    def test_rows_sorted(self):
        _, out = lemmas_run()
        _, rows = read_table(out / "lemmas.csv")
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys)


class TestExtract:
    def test_parity_row_matches_direct_pipeline(self):
        code, out = parity_run()
        assert code == 0
        header, rows = read_table(out / "extract.csv")
        assert header == [c for c, _ in TABLE_SCHEMAS["extract"]]
        (row,) = rows
        cfg = ExperimentConfig(M=2, seed=11)
        scenario = get_scenario("parity")
        sketch, decoder, report = extract_sketch(
            scenario.algorithm,
            scenario.target,
            scenario.problem(cfg),
            "exact",
            transfer_config(cfg, scenario),
            cfg.seed,
        )
        result = evaluate_sketch(
            sketch, decoder, scenario.target, scenario.problem(cfg)
        )
        assert row[0] == "parity" and row[1] == "exact"
        assert row[2] == "8" and row[3] == "2"
        assert int(row[4]) == sketch.structure.rank
        assert int(row[5]) == len(decoder.table)
        assert float(row[6]) == result.success == 1.0
        assert float(row[7]) == pytest.approx(
            report.translation.max_kernel_tv, abs=1e-15
        )

    def test_sketch_report_round_trips(self):
        _, out = parity_run()
        text = (out / "sketch_parity_exact.txt").read_text()
        sketch, decoder = extraction_from_text(text)
        assert sketch.structure.route == "exact"
        assert sketch_apply(sketch, (1, 0)) == (Fraction(1, 2),)
        assert sketch_apply(sketch, (1, 1)) == (Fraction(0),)
        assert decoder.decode(sketch_apply(sketch, (1, 0))) == 1

    def test_mollified_row(self):
        code, out = mollified_run()
        assert code == 0
        _, rows = read_table(out / "extract.csv")
        (row,) = rows
        assert row[0] == "capped-norm" and row[1] == "mollified"
        assert row[4] == "0" and row[5] == "1"
        assert float(row[6]) == 1.0

    def test_selection_failure_exits_one(self, capsys):
        cfg = write_cfg(
            "stuck.cfg",
            "M = 2\nseed = 11\nscenario = parity\nselection_threshold = 0.9\n",
        )
        out = suite_dir() / "stuck"
        code = main(["extract", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "extract failed for scenario 'parity'" in err
        assert not (out / "extract.csv").exists()

    def test_unknown_scenario_exits_two(self, capsys):
        code = main(["extract", "--scenario", "nosuch", "--out", str(suite_dir())])
        assert code == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_bad_config_exits_two(self, capsys):
        cfg = write_cfg("bad.cfg", "kappa = 0.001\nq = 0\n")
        code = main(["extract", "--config", str(cfg), "--out", str(suite_dir())])
        assert code == 2
        err = capsys.readouterr().err
        assert "2 configuration window violation(s)" in err

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("R", "inf"),
            ("R", "nan"),
            ("sweep", "4, inf"),
            ("K", "nan"),
            ("kappa", "nan"),
            ("B", "inf"),
            ("epsilon", "nan"),
            ("delta", "nan"),
            ("tail_mass_target", "inf"),
            ("selection_threshold", "nan"),
            ("tv_margin", "-inf"),
        ],
    )
    def test_non_finite_value_exits_two(self, capsys, key, raw):
        cfg = write_cfg(f"nonfinite-{key}-{raw}.cfg", f"M = 2\n{key} = {raw}\n")
        verb = "tv-sweep" if key == "sweep" else "extract"
        code = main([verb, "--config", str(cfg), "--out", str(suite_dir() / "nf")])
        err = capsys.readouterr().err
        assert code == 2
        name = "sweep radii" if key == "sweep" else key
        assert f"{name} must be finite" in err
        assert "Traceback" not in err


class TestDuplicateSweepRadius:
    """A radius listed twice would run its pass twice, write every row
    twice and flatten every trend, so the config is refused first."""

    def test_window_names_the_repeated_radius(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**parse_config_text("sweep = 4, 8.0, 4.0, 8, 16\n"))
        msg = str(err.value)
        assert "2 configuration window violation(s)" in msg
        assert "sweep radius 4 is listed more than once" in msg
        assert "sweep radius 8 is listed more than once" in msg
        assert "16" not in msg

    def test_tv_sweep_exits_two_before_any_stage(self, capsys, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before the sweep was checked")

        monkeypatch.setattr(cli, "select_state_sequence", no_stage)
        cfg = write_cfg("dup-sweep.cfg", "M = 2\nsweep = 4, 4\nscenario = constant\n")
        out = suite_dir() / "dup-sweep"
        code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "sweep radius 4 is listed more than once" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestKernelRadiusCap:
    """D above the enumeration cap is a usage error before any stage runs,
    for the verbs that enumerate shifts up to D; extract certifies at its
    target's own diameter, so a large D leaves it unchanged, and a D below
    that diameter is a usage error."""

    @pytest.mark.parametrize("verb", ["tv-sweep", "verify-lemmas"])
    def test_enumerating_verbs_reject_d_above_cap(self, capsys, monkeypatch, verb):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before D was checked")

        monkeypatch.setattr(cli, "select_state_sequence", no_stage)
        monkeypatch.setattr(cli, "_decay_rows", no_stage)
        cfg = write_cfg("d13.cfg", "M = 2\nD = 13\nscenario = constant\n")
        out = suite_dir() / f"d13-{verb}"
        code = main([verb, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "D = 13 exceeds the cap 12" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_cap_itself_is_accepted(self):
        cfg = write_cfg(
            "d12.cfg", "n = 2\nM = 2\nD = 12\nseed = 3\nscenario = constant\n"
        )
        out = suite_dir() / "d12-sweep"
        assert main(["tv-sweep", "--config", str(cfg), "--out", str(out)]) == 0

    def test_extract_ignores_d_above_cap(self):
        _, base = parity_run()
        cfg = write_cfg(
            "parity-d13.cfg",
            "n = 2\nR = 8.0\nM = 2\nD = 13\nseed = 11\nscenario = parity\n",
        )
        out = suite_dir() / "parity-d13"
        assert main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        table = "extract.json"
        assert (out / table).read_bytes() == (base / table).read_bytes()
        # the sketch records the declared D in its provenance, and only there
        ours, theirs = (
            (d / "sketch_parity_exact.txt").read_text().splitlines()
            for d in (out, base)
        )
        assert [a for a, b in zip(ours, theirs) if a != b] == ["cfg diameter 13"]
        assert len(ours) == len(theirs)

    def test_extract_rejects_d_below_the_target_diameter(self, capsys, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before D was checked")

        monkeypatch.setattr(cli, "extract_sketch", no_stage)
        cfg = write_cfg("parity-d1.cfg", "M = 2\nD = 1\nseed = 11\nscenario = parity\n")
        out = suite_dir() / "parity-d1"
        code = main(["extract", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: extract needs D to cover the target's support diameter 2.236; "
            "D = 1 is below it"
        ]
        assert not out.exists()


class TestBenchmarkGates:
    """The benchmark's gates read a parsed sketch file through
    `exact_lattice`, `denominator`, `entry_bound` and `provenance.Q`; a
    dropped name fails here before it fails the benchmark."""

    @staticmethod
    def child():
        path = Path(__file__).resolve().parents[1] / "benchmark" / "child.py"
        spec = importlib.util.spec_from_file_location("benchmark_child", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize(
        "run, gate",
        [(parity_run, "_gate_parity"), (mollified_run, "_gate_mollified")],
    )
    def test_extract_passes_its_gate(self, run, gate):
        code, out = run()
        assert code == 0
        problems: list[str] = []
        getattr(self.child(), gate)(out, problems)
        assert problems == []


class TestSmallBallWindow:
    """An R outside the parameter window of the exact small-ball row is a
    usage error before any stage runs: one stderr line naming R and both
    sides of the window, exit 2."""

    @pytest.mark.parametrize("verb", ["smallball", "verify-lemmas"])
    def test_small_radius_exits_two_before_any_stage(self, capsys, monkeypatch, verb):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before the window was checked")

        monkeypatch.setattr(cli, "_decay_rows", no_stage)
        monkeypatch.setattr(cli, "small_ball_check", no_stage)
        cfg = write_cfg("r05.cfg", "R = 0.5\n")
        out = suite_dir() / f"r05-{verb}"
        code = main([verb, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the exact small-ball row a=0.05 u=0.02 is rejected at R=0.5: "
            "parameter window violated: 4.995 > 1.511"
        ]
        assert not out.exists()


class TestLemmaRowsAtTheEdges:
    """Row builders that a one-dimensional or wide config used to crash."""

    def test_parseval_rows_shift_along_the_measure_dimension(self):
        rows = cli._parseval_rows(ExperimentConfig(n=1))
        assert [r[1] for r in rows] == ["v=(1)", "v=(2)"]
        assert all(r[5] for r in rows)

    def test_dissociated_rows_raise_the_scan_grid_to_cover_the_support(
        self, monkeypatch
    ):
        exponents = []
        real_scan = cli.large_spectrum_scan

        def spy_scan(mu, K, grid_exponent):
            exponents.append(grid_exponent)
            return real_scan(mu, K, grid_exponent)

        monkeypatch.setattr(cli, "large_spectrum_scan", spy_scan)
        rows = cli._dissociated_rows(ExperimentConfig(R=64.0))
        assert len(rows) == 3 and all(r[5] for r in rows)
        assert min(exponents) > cli.GRID_EXPONENT
        cli._dissociated_rows(ExperimentConfig(R=8.0))
        assert exponents[3:] == [cli.GRID_EXPONENT] * 3


class TestInvarianceRows:
    @staticmethod
    def tail_row_run(monkeypatch, route):
        """_invariance_rows on `route` with spies on the product of the
        pieces, the certification and the tail center; checks that the
        tail row was read off the one certified product and returns the
        factors the tail center took, its result and the tail row."""
        ffts, reports, tails = [], [], []
        real_fft = translation.convolve_many_fft

        def spy_fft(mus):
            ffts.append(len(mus))
            return real_fft(mus)

        # the product of all the pieces; symmetrize's pairwise products
        # inside measure are other convolutions
        monkeypatch.setattr(translation, "convolve_many_fft", spy_fft)
        real_certify = cli.translation_invariance_certify

        def spy_certify(*args, **kwargs):
            reports.append(real_certify(*args, **kwargs))
            return reports[-1]

        real_tail = cli.convolution_tail_center

        def spy_tail(mus, R, L, conv):
            tails.append((mus, conv, real_tail(mus, R, L, conv)))
            return tails[-1][2]

        monkeypatch.setattr(cli, "translation_invariance_certify", spy_certify)
        monkeypatch.setattr(cli, "convolution_tail_center", spy_tail)
        rows = cli._invariance_rows(ExperimentConfig(route=route))
        ((report,),) = (reports,)
        ((mus, conv, tail),) = tails
        (row,) = [r for r in rows if r[0] == "convolution-tail"]
        assert ffts == [len(mus)]
        assert mus is report.pieces
        assert conv is report.convolution
        d = conv.points - np.asarray(tail.center)
        far = np.sqrt(np.einsum("ij,ij->i", d, d)) > tail.radius
        assert row[2] == float(conv.masses[far].sum()) + conv.deficit
        return mus, tail, row

    def test_exact_route_reads_the_tail_off_the_certified_convolution(
        self, monkeypatch
    ):
        mus, tail, row = self.tail_row_run(monkeypatch, "exact")
        assert len(mus) == ExperimentConfig().M

    def test_mollified_route_reads_the_tail_off_the_certified_convolution(
        self, monkeypatch
    ):
        # one product, with the reference factor; the tail's center and
        # radius take that factor in
        mus, tail, row = self.tail_row_run(monkeypatch, "mollified")
        cfg = ExperimentConfig(route="mollified")
        assert len(mus) == cfg.M + 1
        reference = gamma_truncated(2, cfg.R)
        assert np.array_equal(mus[-1].points, reference.points)
        assert np.array_equal(mus[-1].masses, reference.masses)
        level = math.sqrt(2.0 * math.log(2.0 * (cfg.M + 1) / cfg.tail_mass_target))
        assert row[1] == f"M={cfg.M} L={level:.3g}"
        assert row[3] == tail.mass_bound


class TestExactRouteQWindow:
    """The exact route extracts the product structure at threshold K/4,
    where a chain step needs 3 <= q <= K/4, so a q outside that window is
    a config error before any stage runs."""

    @pytest.mark.parametrize("edit", ["q = 2", "K = 8"])
    @pytest.mark.parametrize("verb", ["extract", "tv-sweep", "verify-lemmas"])
    def test_q_outside_window_exits_two(self, capsys, edit, verb):
        key = edit[0]
        cfg = write_cfg(f"qwin-{key}.cfg", f"M = 2\nsweep = 4\n{edit}\n")
        out = suite_dir() / f"qwin-{key}-{verb}"
        code = main([verb, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "must lie in [3, K/4 = " in err and "on the exact route" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mollified_route_does_not_read_q(self):
        ExperimentConfig(q=2, K=8.0, route="mollified")


class TestExactRouteQFloor:
    """Case 2 rounds a generator to the 1/Q grid, and every Case 1
    denominator is below q^r*, so on the exact route Q < q^r* is a config
    error before any stage runs (r* = chain_length_cap(K/4, q), the chain
    cap of the product structure's extraction)."""

    def test_rounding_to_a_coarse_grid_exits_two(self, capsys):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        cfg = write_cfg(
            "qfloor-sweep.cfg",
            desk.read_text() + "Q = 1\nq = 4\nK = 64\nM = 2\nsweep = 4\n",
        )
        out = suite_dir() / "qfloor-sweep"
        code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        (line,) = [x for x in err.splitlines() if "r*" in x]
        assert "Q = 1" in line and "q = 4" in line and "r* = 1" in line
        assert "Traceback" not in err
        assert not out.exists()

    def test_floor_is_q_to_the_chain_cap(self):
        # K/4 = 128 and q = 3 give r* = 2, so the floor is 9
        assert chain_length_cap(128.0, 3) == 2
        ExperimentConfig(Q=9)
        floor = r"Q = 8 must be at least q\^r\* = 3\^2 = 9"
        with pytest.raises(ConfigError, match=floor):
            ExperimentConfig(Q=8)
        ExperimentConfig(Q=8, route="mollified")

    def test_desk_and_benchmark_configs_load(self):
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "benchmark_run", root / "benchmark" / "run.py"
        )
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        desk = (root / "configs" / "desk.cfg").read_text()
        load_config(root / "configs" / "desk.cfg")
        for name, (_, scenario, route, blocks) in run.WORKLOADS.items():
            text = run.workload_config(desk, scenario, route, blocks)
            path = write_cfg(f"bench-{name}.cfg", text)
            assert load_config(path).route == route


class TestKWindow:
    """Both routes scan the product structure at threshold K/4, and a
    heavy-frequency scan needs a threshold of at least 2, so K < 8 is a
    config error before any stage runs.  The mollified route reads no q,
    so there the q window did not catch it."""

    SCENARIO = {"extract": "capped-norm", "tv-sweep": "parity", "verify-lemmas": "parity"}

    @pytest.mark.parametrize("K", ["4", "7"])
    @pytest.mark.parametrize("verb", ["extract", "tv-sweep", "verify-lemmas"])
    def test_k_below_eight_exits_two(self, capsys, K, verb):
        cfg = write_cfg(
            f"kwin-{K}-{verb}.cfg",
            f"n = 2\nM = 2\nsweep = 4\nQ = 8\nK = {K}\nroute = mollified\n"
            f"scenario = {self.SCENARIO[verb]}\n",
        )
        out = suite_dir() / f"kwin-{K}-{verb}"
        code = main([verb, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"K = {K} must be at least 8" in err
        assert f"K/4 = {int(K) / 4:g}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["exact", "mollified"])
    def test_window_holds_on_both_routes(self, route):
        with pytest.raises(ConfigError, match="K = 7.99 must be at least 8"):
            ExperimentConfig(K=7.99, route=route)


class TestCertificationFailure:
    """A failed certification is one stderr line and exit 1, never a
    traceback."""

    def test_tv_sweep(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise CertifiedBoundError(
                "total chain length exceeds the 14 S dissociated-size bound"
            )

        monkeypatch.setattr(cli, "translation_invariance_certify", fail)
        cfg = write_cfg(
            "cert-fail-sweep.cfg", "M = 2\nsweep = 4\nscenario = mod-3\n"
        )
        out = suite_dir() / "cert-fail-sweep"
        code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "tv-sweep failed for scenario 'mod-3' at R=4: "
            "total chain length exceeds the 14 S dissociated-size bound"
        ]
        assert not out.exists()

    def test_verify_lemmas(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise CertifiedBoundError("lattice rank 3 exceeds 14 S = 2.000")

        monkeypatch.setattr(cli, "translation_invariance_certify", fail)
        cfg = write_cfg("lemmas-fail.cfg", "n = 2\nM = 2\nseed = 11\n")
        out = suite_dir() / "lemmas-fail"
        code = main(["verify-lemmas", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "verify-lemmas failed for scenario 'lemmas' at R=8: "
            "lattice rank 3 exceeds 14 S = 2.000"
        ]
        assert not out.exists()


class TestKernelFailureCause:
    """A failed kernel record names its cause on one stderr line: the
    spectral precondition when it reported violations, else the tv above
    its bound.  The report is doctored, so no failing run is needed."""

    @pytest.mark.parametrize(
        "violations, line",
        [
            (
                2,
                "FAILED kernel shift (3,0): spectral precondition failed with "
                "2 violation(s); tv 1, bound 404.008",
            ),
            (0, "FAILED kernel shift (3,0): tv 1 above bound 404.008"),
        ],
    )
    def test_extract_names_the_failed_check(
        self, capsys, monkeypatch, violations, line
    ):
        real = cli.extract_sketch

        def failing(*args, **kwargs):
            sketch, decoder, report = real(*args, **kwargs)
            _, first = report.translation.records[0]
            rec = replace(
                first,
                direction=(3, 0),
                actual_tv=1.0,
                bound=404.008,
                spectral=replace(first.spectral, violations=("doctored",) * violations),
                passed=False,
            )
            translation = replace(report.translation, records=(("kernel", rec),))
            return sketch, decoder, replace(report, translation=translation)

        monkeypatch.setattr(cli, "extract_sketch", failing)
        cfg = write_cfg(
            "parity-fail.cfg", "n = 2\nR = 8.0\nM = 2\nseed = 11\nscenario = parity\n"
        )
        out = suite_dir() / f"parity-fail-{violations}"
        code = main(["extract", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [line]

    def test_tv_sweep_names_each_failed_kernel(self, capsys, monkeypatch):
        real = cli.translation_invariance_certify

        def failing(*args, **kwargs):
            # every kernel record fails, every other one on its spectral check
            report = real(*args, **kwargs)
            records = tuple(
                (kind, rec)
                if kind != "kernel"
                else (
                    kind,
                    replace(
                        rec,
                        spectral=replace(
                            rec.spectral, violations=("doctored",) * (i % 2)
                        ),
                        passed=False,
                    ),
                )
                for i, (kind, rec) in enumerate(report.records)
            )
            return replace(report, records=records)

        monkeypatch.setattr(cli, "translation_invariance_certify", failing)
        cfg = write_cfg(
            "kernel-fail-sweep.cfg", "M = 2\nsweep = 4\nscenario = constant\n"
        )
        out = suite_dir() / "kernel-fail-sweep"
        code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        rows = json.loads((out / "tv_sweep.json").read_text())["rows"]
        failed = [r["v"] for r in rows if r["kind"] == "kernel" and not r["passed"]]
        assert f"{len(failed)} kernel failure(s)" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == len(failed) > 0
        prefix = "FAILED kernel shift "
        assert all(x.startswith(prefix) and x.endswith(" at R=4") for x in lines)
        assert sorted(x[len(prefix) :].split(":")[0] for x in lines) == sorted(failed)


class TestTvSweep:
    def test_constant_sweep_decreasing(self):
        code, out = constant_sweep_run()
        assert code == 0
        header, rows = read_table(out / "tv_sweep.csv")
        assert header == [c for c, _ in TABLE_SCHEMAS["tv_sweep"]]
        assert rows and all(r[4] == "kernel" for r in rows)
        assert all(r[7] == "decreasing" for r in rows)
        assert all(r[6] == "true" for r in rows)

    def test_trend_recomputed_from_rows(self):
        _, out = constant_sweep_run()
        _, rows = read_table(out / "tv_sweep.csv")
        series: dict[str, list[tuple[float, float]]] = {}
        for r in rows:
            series.setdefault(r[3], []).append((float(r[2]), float(r[5])))
        for vec, pts in series.items():
            pts.sort()
            assert len(pts) == 2
            assert pts[1][1] < pts[0][1], vec

    def test_rows_sorted_by_kind_vector_radius(self):
        _, out = constant_sweep_run()
        _, rows = read_table(out / "tv_sweep.csv")
        vec = lambda cell: tuple(int(c) for c in cell.strip("()").split(","))
        keys = [(r[4], vec(r[3]), float(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_parity_controls_stay_at_full_mass(self):
        code, out = parity_sweep_run()
        assert code == 0
        _, rows = read_table(out / "tv_sweep.csv")
        controls = [r for r in rows if r[4] == "control"]
        kernels = [r for r in rows if r[4] == "kernel"]
        assert controls and kernels
        assert all(float(r[5]) >= 1.0 - 1e-9 for r in controls)
        assert all(r[6] == "true" for r in kernels)

    def test_sweep_reads_the_laws_selection_certified(self, monkeypatch):
        # each radius builds its laws once, in selection
        def rebuilt(*args, **kwargs):
            raise AssertionError("posterior_laws called during tv-sweep")

        for module in (streaming, transfer, cli):
            monkeypatch.setattr(module, "posterior_laws", rebuilt, raising=False)
        certified = []
        real_certify = cli.translation_invariance_certify

        def spy_certify(mus, *args, **kwargs):
            certified.append(mus)
            return real_certify(mus, *args, **kwargs)

        monkeypatch.setattr(cli, "translation_invariance_certify", spy_certify)
        cfg = write_cfg(
            "laws-sweep.cfg", "n = 2\nM = 2\nsweep = 4, 8\nseed = 3\nscenario = constant\n"
        )
        out = suite_dir() / "laws-sweep"
        assert main(["tv-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert [len(mus) for mus in certified] == [2, 2]
        assert (out / "tv_sweep.json").read_bytes() == (
            constant_sweep_run()[1] / "tv_sweep.json"
        ).read_bytes()

    def test_sweep_runs_its_largest_radius_first_and_drops_each(self, monkeypatch):
        # the sweep peaks at its largest radius: that radius runs first, and
        # no radius's laws are alive when the next one is selected
        radii, alive, refs = [], [], []
        real_select = cli.select_state_sequence

        def spy_select(alg, target, problem, R, *args, **kwargs):
            radii.append(R)
            alive.append(sum(ref() is not None for ref in refs))
            sigma = real_select(alg, target, problem, R, *args, **kwargs)
            refs.extend(weakref.ref(law.points) for law in sigma.laws)
            return sigma

        monkeypatch.setattr(cli, "select_state_sequence", spy_select)
        cfg = write_cfg(
            "order-sweep.cfg", "n = 2\nM = 2\nsweep = 4, 16, 8\nseed = 3\nscenario = constant\n"
        )
        out = suite_dir() / "order-sweep"
        assert main(["tv-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert radii == [16.0, 8.0, 4.0]
        assert alive == [0, 0, 0]

    def test_single_radius_has_empty_trend(self):
        cfg = write_cfg(
            "single.cfg", "n = 2\nM = 2\nseed = 3\nscenario = constant\n"
        )
        out = suite_dir() / "single"
        code = main(["tv-sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        _, rows = read_table(out / "tv_sweep.csv")
        assert rows and all(r[7] == "" for r in rows)


class TestSmallball:
    def test_battery_shape(self):
        out = suite_dir() / "sb1"
        code = main(["smallball", "--seed", "5", "--out", str(out)])
        assert code == 0
        header, rows = read_table(out / "smallball.csv")
        assert header == [c for c, _ in TABLE_SCHEMAS["smallball"]]
        assert len(rows) == 6
        exact = rows[0]
        assert exact[0] == "exact" and exact[7] == "0" and exact[6] == "0"
        assert all(r[8] == "true" for r in rows)

    def test_same_seed_reproduces_bodies(self):
        out1 = suite_dir() / "sb1"
        out2 = suite_dir() / "sb2"
        if not (out1 / "smallball.csv").exists():
            main(["smallball", "--seed", "5", "--out", str(out1)])
        main(["smallball", "--seed", "5", "--out", str(out2)])
        body1 = (out1 / "smallball.csv").read_text().splitlines()[1:]
        body2 = (out2 / "smallball.csv").read_text().splitlines()[1:]
        assert body1 == body2
        assert (out1 / "smallball.json").read_bytes() == (
            out2 / "smallball.json"
        ).read_bytes()

    def test_seed_changes_probabilities(self):
        out3 = suite_dir() / "sb3"
        main(["smallball", "--seed", "6", "--out", str(out3)])
        _, base = read_table(suite_dir() / "sb1" / "smallball.csv")
        _, other = read_table(out3 / "smallball.csv")
        probs = lambda rows: [r[4] for r in rows if r[0] != "exact"]
        assert probs(base) != probs(other)


class TestReport:
    def test_schema_documents_all_tables(self, capsys):
        assert main(["report", "--schema"]) == 0
        text = capsys.readouterr().out
        for name, cols in TABLE_SCHEMAS.items():
            assert f"{name}.csv" in text
            for col, _ in cols:
                assert col in text

    def test_listing_empty_directory(self, capsys, tmp_path):
        assert main(["report", "--out", str(tmp_path / "void")]) == 0
        assert "no tables" in capsys.readouterr().out

    def test_listing_counts_rows(self, capsys):
        _, out = parity_run()
        assert main(["report", "--out", str(out)]) == 0
        assert "1 row(s)" in capsys.readouterr().out


# Runs two verbs in one interpreter and prints how much CPU the threads
# other than the main one used meanwhile, read from their schedstat.
WORKER_PROBE = """
import os, sys, time
import numpy
from sketchlab.cli import main

me = os.getpid()
others = [t for t in os.listdir("/proc/self/task") if int(t) != me]
if not others:
    print("no second thread")
    sys.exit(0)

def worker_ns():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            with open(f"/proc/self/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
    return total

# OpenBLAS's threads spin for about 70 ms after they start: wait until
# they sleep, so only the verbs are measured
before = worker_ns()
for _ in range(100):
    time.sleep(0.02)
    now = worker_ns()
    if now == before:
        break
    before = now
codes = [main(args.split()) for args in sys.argv[1:]]
print(codes, worker_ns() - before)
"""


class TestOneThread:
    """extract, tv-sweep, smallball and verify-lemmas call no BLAS
    product: with a two-thread OpenBLAS pool, its second thread stays idle
    through a parity extraction, a constant sweep and both lemma verbs.
    A product large enough for two threads wakes it, and it then spins
    through the rest of the run."""

    @staticmethod
    def assert_worker_idle(commands):
        if not Path(f"/proc/{os.getpid()}/task").is_dir():
            pytest.skip("needs Linux /proc")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", WORKER_PROBE, *commands],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        last = done.stdout.splitlines()[-1]
        if last == "no second thread":
            pytest.skip("OpenBLAS started no second thread")
        codes, worker = last.rsplit(" ", 1)
        assert codes == str([0] * len(commands))
        assert int(worker) <= 5_000_000, f"worker used {int(worker) / 1e6:.1f} ms"

    def test_blas_worker_stays_idle(self):
        root = Path(__file__).resolve().parents[1]
        desk = (root / "configs" / "desk.cfg").read_text()
        parity = write_cfg("idle-parity.cfg", desk.replace("M = 8", "M = 3"))
        sweep = write_cfg(
            "idle-sweep.cfg",
            desk.replace("M = 8", "M = 2")
            .replace("scenario = parity", "scenario = constant")
            .replace("sweep = 4, 8, 16", "sweep = 16"),
        )
        self.assert_worker_idle(
            [
                f"extract --config {parity} --out {suite_dir() / 'idle-parity'}",
                f"tv-sweep --config {sweep} --out {suite_dir() / 'idle-sweep'}",
            ]
        )

    def test_blas_worker_stays_idle_in_the_lemma_verbs(self):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        self.assert_worker_idle(
            [
                f"smallball --config {desk} --out {suite_dir() / 'idle-smallball'}",
                f"verify-lemmas --config {desk} --out {suite_dir() / 'idle-lemmas'}",
            ]
        )


# Runs verbs in one interpreter and prints their exit codes and whether
# numpy.random was imported on the way.
RANDOM_PROBE = """
import sys
from sketchlab.cli import main

codes = [main(args.split()) for args in sys.argv[1:]]
print(codes, "numpy.random" in sys.modules)
"""


def test_extract_and_sweep_never_import_numpy_random(tmp_path):
    # every draw on these verbs comes from dgauss's array stream; the
    # configs are the benchmark's three workloads
    root = Path(__file__).resolve().parents[1]
    desk = (root / "configs" / "desk.cfg").read_text()
    configs = {
        "parity": desk.replace("M = 8", "M = 3"),
        "capped": desk.replace("M = 8", "M = 2")
        .replace("scenario = parity", "scenario = capped-norm")
        .replace("route = exact", "route = mollified")
        .replace("Q = 2048", "Q = 8"),
        "sweep": desk.replace("M = 8", "M = 2").replace(
            "scenario = parity", "scenario = constant"
        ),
    }
    commands = []
    for verb, name in (
        ("extract", "parity"),
        ("extract", "capped"),
        ("tv-sweep", "sweep"),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(configs[name])
        commands.append(f"{verb} --config {cfg} --out {tmp_path / name}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RANDOM_PROBE, *commands],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"
