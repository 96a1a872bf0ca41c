#!/usr/bin/env python3
"""Time to a certified sketch, measured from outside the program.

    python3 benchmark/run.py --workload extract-parity-exact --seed 0 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 40 --trace 0

Every pass is a fresh interpreter (child.py) that runs one sketchlab verb
through `sketchlab.cli.main` on `configs/desk.cfg` with the overrides of
`scripts/run_suite.py`, then checks the tables against the paper's
invariants. `--trace 0` times untraced passes until `--seconds` is used
up (at least one) and prints the end-to-end metrics. `--trace 1` runs
untraced and traced passes in pairs and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; children still running at this age are killed
RUN_DEADLINE_S = 170
SETUP_SAMPLES = 5

# workload -> (verb, scenario, route, M); the config edits mirror
# scripts/run_suite.py so the benchmark runs what the suite runs, except
# that parity runs at M = 3: one M = 8 pass takes 25-30 s on a 2-CPU Xeon
# and single passes swing by 20 %, so a run needs four or more passes of
# about 8 s for its median to hold
WORKLOADS = {
    "extract-parity-exact": ("extract", "parity", "exact", 3),
    "sweep-constant": ("tv-sweep", "constant", "exact", 2),
    "extract-capped-mollified": ("extract", "capped-norm", "mollified", 2),
}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def workload_config(desk: str, scenario: str, route: str, blocks: int) -> str:
    edits = [
        ("M = 8", f"M = {blocks}"),
        ("scenario = parity", f"scenario = {scenario}"),
        ("route = exact", f"route = {route}"),
    ]
    if route == "mollified":
        edits.append(("Q = 2048", "Q = 8"))
    for old, new in edits:
        if old not in desk:
            raise BenchError(f"configs/desk.cfg no longer contains {old!r}")
        desk = desk.replace(old, new)
    return desk


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    cap = str(thread_cap())
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Spawns passes for one workload and seed inside a scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        verb, scenario, route, blocks = WORKLOADS[workload]
        self.workload = workload
        self.verb = verb
        self.seed = seed
        self.work = work
        self.config = work / f"{workload}.cfg"
        desk = (ROOT / "configs" / "desk.cfg").read_text()
        self.config.write_text(workload_config(desk, scenario, route, blocks))
        self.env = child_env()
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, mode: str) -> dict:
        """One child; returns its result with `setup_s` and `wall_s` added."""
        self.count += 1
        tag = f"{mode}-{self.count}"
        result_path = self.work / f"{tag}.json"
        spans_path = self.work / f"{tag}.spans.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--root", str(ROOT), "--workload", self.workload, "--mode", mode,
            "--result", str(result_path), "--spans", str(spans_path), "--",
            self.verb, "--config", str(self.config), "--seed", str(self.seed),
            "--out", str(self.work / tag),
        ]
        log = self.work / f"{tag}.log"
        with log.open("w") as fh:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env)
            try:
                code = proc.wait(timeout=max(0.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            wall = time.monotonic() - start
        if code != 0 or not result_path.is_file():
            tail = log.read_text()[-2000:]
            return {"problems": [f"{tag} exited {code}: {tail}"], "wall_s": wall}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["first"] - start
        result["wall_s"] = wall
        if mode == "traced":
            result["spans"] = json.loads(spans_path.read_text())
        return result


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


class Tally:
    """Attempted and failed passes; a pass fails its gate, or differs in a
    table body from the first pass of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.tables: dict | None = None
        self.problems: list[str] = []

    def add(self, result: dict) -> None:
        self.attempted += 1
        problems = list(result.get("problems", []))
        tables = result.get("tables")
        if tables is not None:
            if self.tables is None:
                self.tables = tables
            elif tables != self.tables:
                problems.append("JSON table bodies differ from the run's first pass")
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def measure_untraced(runner: Runner, seconds: float, tally: Tally) -> dict:
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        result = runner.spawn("solve")
        tally.add(result)
        if "solve_s" in result:
            passes.append(result)
        walls = [p["wall_s"] for p in passes] or [result["wall_s"]]
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        extra = runner.spawn("setup")
        if "setup_s" not in extra:
            tally.add(extra)
            break
        setups.append(extra["setup_s"])
    if not passes:
        raise BenchError("no pass finished: " + "; ".join(tally.problems)[-2000:])
    return {
        "passes": passes,
        "setup_s": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median([p["solve_s"] for p in passes]),
            "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
            "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "max_kernel_tv": statistics.median([p["max_kernel_tv"] for p in passes]),
        },
    }


def measure_traced(runner: Runner, seconds: float, tally: Tally, per_layer: list[str]) -> dict:
    import layers
    from tracer import summarize

    start = time.monotonic()
    traced: list[dict] = []
    while True:
        # the untraced pass is there for the gate: its tables must match
        # the traced pass's, so tracing is shown not to change the numerics
        pair = 0.0
        for mode in ("solve", "traced"):
            result = runner.spawn(mode)
            tally.add(result)
            if "solve_s" not in result:
                raise BenchError("; ".join(result["problems"])[-2000:])
            pair += result["wall_s"]
        traced.append(result)
        if time.monotonic() - start + pair > seconds:
            break
    samples: dict[str, list[float]] = {name: [] for name in per_layer}
    for result in traced:
        spans = result["spans"]
        summary = summarize(spans)
        root = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
        # share of the traced solve covered by the layers the verb calls
        covered = sum(
            s[3] - s[2] for s in spans if s[1] == root and s[2] >= result["first"]
        )
        for name in per_layer:
            if name == "trace.overhead_s":
                value = result["overhead_s"]
            elif name == "trace.coverage":
                value = covered / result["solve_s"]
            else:
                value = layers.layer_value(summary, name)
            samples[name].append(value)
    return {
        "passes": traced,
        "summary": summary,
        "metrics": {name: statistics.median(values) for name, values in samples.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=ROOT / ".bench_work"))
    runner = Runner(workload, seed, work)
    tally = Tally()
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        measured = measure_traced(runner, seconds, tally, names)
    else:
        measured = measure_untraced(runner, seconds, tally)
    if tally.failed:
        print(f"{workload}: kept pass files in {work}", file=sys.stderr)
        for problem in tally.problems:
            print(f"{workload}: {problem}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    measured["tally"] = tally
    return measured


def report(workload: str, measured: dict, spec: list[dict]) -> None:
    passes = measured["passes"]
    for m in spec:
        name, value = m["name"], measured["metrics"][m["name"]]
        detail = ""
        if name in ("solve_s", "cpu_s", "peak_rss_mb"):
            detail = _quartiles([p[name] for p in passes])
        elif name == "setup_s":
            detail = _quartiles(measured["setup_s"])
        print(f"{workload} {name} = {value:.6g} {m['unit']} ({m['better']} is better) {detail}")
    for span, row in sorted(measured.get("summary", {}).items()):
        print(
            f"{workload} span {span}: calls {row['calls']} "
            f"total {row['total_s']:.4g} s self {row['self_s']:.4g} s"
        )
    tally = measured["tally"]
    print(f"{workload} gate: {tally.attempted - tally.failed}/{tally.attempted} passes correct")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        for needed in ("BENCHMARK.json", "configs/desk.cfg", "src/sketchlab/cli.py"):
            if not (ROOT / needed).is_file():
                raise BenchError(f"{needed} is missing under {ROOT}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metric_spec = spec["per_layer" if args.trace else "end_to_end"]
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
            for w in workloads
        }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    versions = next(iter(results.values()))["passes"][0]["versions"]
    env = {**versions, "nproc": os.cpu_count(), "thread_cap": thread_cap(), "cpu": cpu_model()}
    print("env " + json.dumps(env, sort_keys=True))
    for w, measured in results.items():
        report(w, measured, metric_spec)
    prefix = len(results) > 1
    metrics = {
        (f"{w}/{m['name']}" if prefix else m["name"]): {
            "value": measured["metrics"][m["name"]],
            "unit": m["unit"],
        }
        for w, measured in results.items()
        for m in metric_spec
    }
    attempted = sum(r["tally"].attempted for r in results.values())
    failed = sum(r["tally"].failed for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
