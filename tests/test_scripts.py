"""The suite driver, the output comparison that byte-identity claims
rest on, and the benchmark pair driver: `scripts/run_suite.py` leaves no
config copy behind, `scripts/compare_outputs.py` counts a changed table
line, ignores a CSV's timestamp comment, reports a file that one side
lacks and names the number that moved most, passing over zeros at
roundoff level, `scripts/bench.py` refuses checkouts whose paths
differ in length before it runs anything and records its bytecode mode,
and `scripts/fiber_atlas.py` prints its atlas or fails in one line."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_suite_removes_its_config_copies(monkeypatch, tmp_path):
    run_suite = load("run_suite")
    calls = []
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(run_suite, "run", lambda args: calls.append(args) or 0)
    assert run_suite.main_suite() == 0
    # every verb ran, five extracts and two sweeps on config copies
    assert [a[0] for a in calls].count("extract") == 5
    assert [a[0] for a in calls].count("tv-sweep") == 2
    assert list(tmp_path.iterdir()) == []


def tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_compare_counts_line_differences_and_missing_files(tmp_path, capsys):
    compare_outputs = load("compare_outputs")
    old = tree(
        tmp_path / "old",
        {
            "lemmas.json": '{"rows": [\n  1,\n  2\n]}\n',
            "parity/kernel.csv": "# written 2026-01-01 00:00\nshift,tv\n1,0.5\n",
            "parity/sketch.txt": "rank 1\n",
        },
    )
    new = tree(
        tmp_path / "new",
        {
            "lemmas.json": '{"rows": [\n  1,\n  3\n]}\n',
            "parity/kernel.csv": "# written 2026-02-02 12:34\nshift,tv\n1,0.5\n",
            "sweep/table.csv": "# written 2026-02-02 12:34\nR,tv\n",
        },
    )
    found, pairs = compare_outputs.compare(old, new)
    assert found == 4
    assert pairs == [("lemmas.json", "  2", "  3")]
    printed = capsys.readouterr().out.splitlines()
    assert sorted(printed) == [
        "lemmas.json: +  3",
        "lemmas.json: -  2",
        "parity/sketch.txt: missing in change",
        "sweep/table.csv: missing in parent",
    ]


def test_compare_of_equal_trees_is_zero(tmp_path, capsys):
    compare_outputs = load("compare_outputs")
    files = {"a.json": "{}\n", "b/c.csv": "# t0\nx\n"}
    old = tree(tmp_path / "old", files)
    new = tree(tmp_path / "new", dict(files, **{"b/c.csv": "# t1\nx\n"}))
    assert compare_outputs.compare(old, new) == (0, [])
    assert capsys.readouterr().out == ""


def test_compare_names_the_largest_numeric_move(tmp_path, capsys):
    compare_outputs = load("compare_outputs")
    old = tree(
        tmp_path / "old",
        {
            "lemmas.csv": "# t0\nfamily,lhs,rhs\ntail,5.13e-10,0.001\nball,0.25,3\n",
            "parity/sketch.txt": "lattice_s_certified 2.0000003\nrank 1\nspan_error=0\n",
        },
    )
    new = tree(
        tmp_path / "new",
        {
            "lemmas.csv": "# t1\nfamily,lhs,rhs\ntail,5.15e-10,0.001\nball,0.25,3\n",
            "parity/sketch.txt": "lattice_s_certified 2.0055\nrank 1\nspan_error=0.0\n",
        },
    )
    found, pairs = compare_outputs.compare(old, new)
    assert found == 6
    capsys.readouterr()
    best, numeric = compare_outputs.largest_change(pairs)
    # 5.13e-10 -> 5.15e-10 moved by 2/515; 2.0000003 -> 2.0055 by less,
    # "0" -> "0.0" not at all; every pair differs only in its numbers
    assert best == (abs(5.15e-10 - 5.13e-10) / 5.15e-10, "lemmas.csv", "5.13e-10", "5.15e-10")
    assert numeric == 3
    assert compare_outputs.largest_change([("a.txt", "route exact", "route mollified")]) == (None, 0)


def test_compare_skips_moves_between_noise_level_zeros():
    compare_outputs = load("compare_outputs")
    pairs = [
        (
            "constant/sketch.txt",
            "span_error=1.4444474582904269e-34",
            "span_error=7.7037197775489434e-34",
        ),
        (
            "parity/sketch.txt",
            "lattice_s_certified 2.0000003",
            "lattice_s_certified 2.0055",
        ),
    ]
    best, numeric = compare_outputs.largest_change(pairs)
    # the span error moved by 0.81 relative, but both values are zero at
    # roundoff level; the real move is the lattice's
    rel = abs(2.0055 - 2.0000003) / 2.0055
    assert best == (rel, "parity/sketch.txt", "2.0000003", "2.0055")
    assert numeric == 2
    assert compare_outputs.largest_change(pairs[:1]) == (None, 1)


def test_bench_refuses_checkout_paths_of_different_length(tmp_path, monkeypatch, capsys):
    bench = load("bench")

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench, "collect", no_run)
    monkeypatch.setattr(bench, "bench_once", no_run)
    parent, change = tmp_path / "parent", tmp_path / "chg"
    for side in (parent, change):
        side.mkdir()
    code = bench.main(["--parent", str(parent), "--change", str(change), "--pr", "0"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "differ in length" in err[0]
    assert str(parent) in err[0] and str(change) in err[0]
    assert list(change.iterdir()) == []


def test_bench_records_both_checkout_paths(tmp_path, monkeypatch, capsys):
    bench = load("bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    monkeypatch.setattr(bench, "collect", lambda checkouts, seconds: {s: [] for s in bench.SIDES})
    assert bench.main(["--parent", str(parent), "--change", str(change), "--pr", "0"]) == 0
    record = json.loads((change / "BENCH_0.json").read_text())
    assert record["checkouts"] == {"parent": str(parent), "change": str(change)}
    capsys.readouterr()


def test_bench_records_bytecode_mode_before_the_first_pair(tmp_path, monkeypatch, capsys):
    bench = load("bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    cache = change / "src" / "sketchlab" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "cli.cpython-312.pyc").write_bytes(b"")
    parent.mkdir()
    (change / "BENCHMARK.json").write_text('{"run_seconds": 1}')

    def compile_parent(checkouts, seconds):
        # a run that writes bytecode must not change the recorded mode
        (parent / "src" / "sketchlab" / "__pycache__").mkdir(parents=True)
        (parent / "src" / "sketchlab" / "__pycache__" / "cli.cpython-312.pyc").write_bytes(b"")
        return {s: [] for s in bench.SIDES}

    monkeypatch.setattr(bench, "collect", compile_parent)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench.main(["--parent", str(parent), "--change", str(change), "--pr", "0"]) == 0
    record = json.loads((change / "BENCH_0.json").read_text())
    assert record["bytecode"] == {
        "PYTHONDONTWRITEBYTECODE": "1",
        "compiled": {"parent": False, "change": True},
    }
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench.bytecode_mode({"parent": parent})["PYTHONDONTWRITEBYTECODE"] is None
    capsys.readouterr()


def run_atlas(*args: str) -> subprocess.CompletedProcess:
    src = str(SCRIPTS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "fiber_atlas.py"), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_fiber_atlas_prints_the_parity_fibers():
    done = run_atlas("parity", "exact", "3")
    assert done.returncode == 0, done.stderr
    rows = [line.strip() for line in done.stdout.splitlines()[1:]]
    assert rows == [
        "(Fraction(0, 1),) -> 0: (0, 0) (0, 2) (1, 1) (2, 0) (2, 2)",
        "(Fraction(1, 2),) -> 1: (0, 1) (1, 0) (1, 2) (2, 1)",
    ]


def test_fiber_atlas_fails_in_one_line():
    for args, needle in (
        (("nope",), "unknown scenario 'nope'"),
        (("parity", "sideways"), "unknown route 'sideways'"),
        (("parity", "exact", "x"), "'x'"),
        (("parity", "exact", "0"), "window must be positive"),
    ):
        done = run_atlas(*args)
        assert done.returncode == 2
        assert done.stdout == ""
        err = done.stderr.splitlines()
        assert len(err) == 1 and needle in err[0], done.stderr


def test_fiber_atlas_fails_in_one_line_when_extraction_fails():
    # parity is not smooth, so the mollified route refuses it
    done = run_atlas("parity", "mollified", "3")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1, done.stderr
    assert "'parity'" in err[0] and "mollified" in err[0] and "smooth" in err[0]
