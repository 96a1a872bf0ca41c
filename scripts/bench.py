#!/usr/bin/env python3
"""Benchmark a change against its parent and write BENCH_<pr>.json.

    python3 scripts/bench.py --parent <checkout> --pr <n> [--change <checkout>]
        [--note "<what changed>"]

Each side is a checkout with its own `benchmark/run.py`, and each run is
`python3 benchmark/run.py --workload all --seed 3 --seconds <run_seconds>
--trace 0` in that checkout, with `run_seconds` read from the change's
BENCHMARK.json, so every workload of the benchmark runs.  The two
checkouts must sit at resolved paths of equal length: peak RSS moves with
the length of the checkout path, so the script exits 2 with one line on
stderr, before any run, when they differ.  Ten pairs run,
the two sides alternately, pair i starting with the parent when i is odd,
so drift of the host lands on both.  One sample is the value a run prints
for a workload: the median over that run's passes.

Every run is recorded, also one that exits non-zero or fails its gate:
the file keeps each side's runs with their exit status and attempted and
failed passes, then per workload every sample (null where a run printed
no metrics), the median and quartiles of each side, and how many pairs
the change won on solve_s; both checkout paths; and the machine (CPU
model, nproc, thread cap) with the Python, numpy, scipy and BLAS versions
that `run.py` reports; and the bytecode mode, which moves peak RSS: the
value of PYTHONDONTWRITEBYTECODE the runs inherit, and per checkout
whether `src/sketchlab/__pycache__` held compiled modules before the
first pair.
It is written to the change checkout, and the script exits 1 when any
run failed or failed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SEED = 3


def git_head(checkout: Path) -> str | None:
    """The commit a checkout is at, or None outside a git checkout."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def run_args(seconds: float) -> list[str]:
    return [
        "benchmark/run.py",
        "--workload", "all",
        "--seed", str(SEED),
        "--seconds", f"{seconds:g}",
        "--trace", "0",
    ]


def bench_once(checkout: Path, seconds: float) -> dict:
    """One `run.py --workload all` run: exit status, pass counts, env, metrics.

    A run that exits non-zero or prints no result line has no pass counts
    and no metrics; its last line of stderr is kept as `error`.
    """
    done = subprocess.run(
        [sys.executable, *run_args(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.splitlines()
    run = {"exit": done.returncode, "attempted": None, "failed": None}
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        run["error"] = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return run
    run.update(attempted=result["attempted"], failed=result["failed"])
    run["env"] = next(
        (json.loads(line[4:]) for line in lines if line.startswith("env ")), {}
    )
    run["metrics"] = {key: m["value"] for key, m in result["metrics"].items()}
    return run


def run_ok(run: dict) -> bool:
    return run["exit"] == 0 and run["failed"] == 0


def spread(values: list) -> dict | None:
    """Median and quartiles of the samples a side has, None below two."""
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return None
    q1, median, q3 = statistics.quantiles(present, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bytecode_mode(checkouts: dict) -> dict:
    """PYTHONDONTWRITEBYTECODE as the runs inherit it (None when unset),
    and per checkout whether its package cache holds compiled modules."""
    return {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "compiled": {
            side: any((path / "src/sketchlab/__pycache__").glob("*.pyc"))
            for side, path in checkouts.items()
        },
    }


def collect(checkouts: dict, seconds: float) -> dict:
    """runs[side]: every run of that side, in pair order."""
    runs: dict = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES if i % 2 else SIDES[::-1]:
            run = bench_once(checkouts[side], seconds)
            runs[side].append(run)
            state = "done" if run_ok(run) else f"FAILED ({run.get('error', 'gate')})"
            print(f"pair {i + 1}/{PAIRS} {side} {state}", file=sys.stderr)
    return runs


def by_workload(runs: dict) -> list[dict]:
    """Per workload: samples aligned by pair, spreads and solve_s wins."""
    keys = sorted(
        {key for side in SIDES for run in runs[side] for key in run.get("metrics", {})}
    )
    table: dict = {}
    for key in keys:
        workload, name = key.split("/", 1)
        for side in SIDES:
            table.setdefault(workload, {s: {} for s in SIDES})[side][name] = [
                run.get("metrics", {}).get(key) for run in runs[side]
            ]
    out = []
    for workload, samples in table.items():
        solve = zip(samples["parent"]["solve_s"], samples["change"]["solve_s"])
        out.append(
            {
                "workload": workload,
                "solve_s_change_wins": sum(
                    p is not None and c is not None and c < p for p, c in solve
                ),
                "summary": {
                    side: {name: spread(v) for name, v in samples[side].items()}
                    for side in SIDES
                },
                "samples": samples,
            }
        )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", default=ROOT, type=Path, help="change checkout")
    ap.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    ap.add_argument("--note", default="", help="what the change does")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lengths = {side: len(str(path)) for side, path in checkouts.items()}
    if lengths["parent"] != lengths["change"]:
        print(
            f"bench.py: checkout paths differ in length (parent {checkouts['parent']} "
            f"is {lengths['parent']} characters, change {checkouts['change']} is "
            f"{lengths['change']}); peak RSS moves with path length, so put both "
            "checkouts at paths of equal length",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    bytecode = bytecode_mode(checkouts)
    runs = collect(checkouts, seconds)
    workloads = by_workload(runs)
    env = next((run["env"] for side in SIDES for run in runs[side] if "env" in run), {})
    record = {
        "change": args.note,
        "parent": git_head(checkouts["parent"]),
        "checkouts": {side: str(path) for side, path in checkouts.items()},
        "command": " ".join(["python3", *run_args(seconds)]),
        "seed": SEED,
        "pairs": PAIRS,
        "method": (
            "parent and change checkouts run alternately, pair i starting with "
            "the parent when i is odd; each entry of samples is one run's "
            "median over its passes, null where that run printed no metrics"
        ),
        "env": env,
        "bytecode": bytecode,
        "passes": {
            side: {
                "runs": [
                    {k: v for k, v in run.items() if k not in ("env", "metrics")}
                    for run in runs[side]
                ],
                "failed_runs": sum(not run_ok(run) for run in runs[side]),
            }
            for side in SIDES
        },
        "runs": workloads,
    }
    out = checkouts["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for entry in workloads:
        medians = {
            side: (entry["summary"][side]["solve_s"] or {}).get("median", float("nan"))
            for side in SIDES
        }
        print(
            f"{entry['workload']}: solve_s median {medians['parent']:.4g} -> "
            f"{medians['change']:.4g} s, change faster in "
            f"{entry['solve_s_change_wins']}/{PAIRS} pairs"
        )
    failed = {side: record["passes"][side]["failed_runs"] for side in SIDES}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    print(f"wrote {out}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
