"""One benchmark pass in a fresh interpreter.

Run by run.py, never imported by it. The pass imports sketchlab from the
checkout's `src`, runs one verb through `sketchlab.cli.main`, checks the
tables it wrote, and writes a JSON result file. The clock split between
set-up and solve is the first call from the CLI into the pipeline
(`extract_sketch` for extract, `select_state_sequence` for tv-sweep).
Modes:

- `solve`: untraced pass;
- `setup`: stops at the first pipeline call, so only set-up is timed;
- `traced`: the pass runs under the tracer; its spans are written out and
  the tracer's own cost is added to the result as `overhead_s`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

PIPELINE_ENTRIES = ("extract_sketch", "select_state_sequence")
# reported when a pass left no kernel TV to read: total variation is at most 1
NO_CERTIFICATE_TV = 1.0


class SetupReached(Exception):
    """Raised at the first pipeline call of a set-up-only pass."""


def _kernel_lines(sketch_text: str) -> list[str]:
    return [line for line in sketch_text.splitlines() if line.startswith("# shift kernel ")]


def _check_kernel_rows(lines: list[str], problems: list[str]) -> None:
    if not lines:
        problems.append("no kernel rows")
    problems.extend(f"kernel row failed: {line}" for line in lines if not line.endswith("passed=True"))


def _extract_outputs(out: Path) -> tuple[dict, str]:
    (row,) = json.loads((out / "extract.json").read_text())["rows"]
    (sketch_path,) = out.glob("sketch_*.txt")
    return row, sketch_path.read_text()


def _gate_parity(out: Path, problems: list[str]) -> float:
    from sketchlab.transfer import extraction_from_text

    row, text = _extract_outputs(out)
    sketch, _ = extraction_from_text(text)
    lattice = sketch.exact_lattice
    if row["dimension"] != 1 or lattice is None or lattice.rank != 1:
        problems.append(f"rank {row['dimension']}, want 1")
    elif lattice.denominators != (2,):
        problems.append(f"generator order {lattice.denominators}, want (2,)")
    else:
        tol = 1.0 / sketch.provenance.Q
        (gen,) = lattice.generators
        if any(min(abs(float(c) - 0.5), abs(float(c) + 0.5)) > tol for c in gen):
            problems.append(f"generator {gen} is not half-integer")
    if row["success"] != 1.0:
        problems.append(f"decoder success {row['success']}, want 1.0")
    _check_kernel_rows(_kernel_lines(text), problems)
    return row["worst_kernel_tv"]


def _gate_mollified(out: Path, problems: list[str]) -> float:
    from sketchlab.transfer import extraction_from_text

    row, text = _extract_outputs(out)
    sketch, _ = extraction_from_text(text)
    if sketch.entry_bound > sketch.denominator:
        problems.append(f"entry bound {sketch.entry_bound} above {sketch.denominator}")
    if row["success"] < 0.9:
        problems.append(f"decoder success {row['success']}, want >= 0.9")
    if not any(
        line.startswith("# smoothness ") and line.endswith("passed=True")
        for line in text.splitlines()
    ):
        problems.append("smoothness check did not pass")
    _check_kernel_rows(_kernel_lines(text), problems)
    return row["worst_kernel_tv"]


def _gate_sweep(out: Path, problems: list[str]) -> float:
    rows = json.loads((out / "tv_sweep.json").read_text())["rows"]
    kernel = [r for r in rows if r["kind"] == "kernel"]
    if not kernel:
        problems.append("no kernel rows")
        return NO_CERTIFICATE_TV
    bad = [r for r in kernel if not r["passed"] or r["trend"] != "decreasing"]
    problems.extend(f"kernel row failed: {r}" for r in bad)
    return max(r["tv"] for r in kernel)


GATES = {
    "extract-parity-exact": _gate_parity,
    "sweep-constant": _gate_sweep,
    "extract-capped-mollified": _gate_mollified,
}


def _versions() -> dict:
    import numpy
    import scipy

    blas = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = f"{deps['name']} {deps['version']}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(GATES))
    ap.add_argument("--mode", required=True, choices=("solve", "setup", "traced"))
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import sketchlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sketchlab imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.mode == "traced":
        import layers
        from tracer import Tracer, span_cost

        tracer = Tracer(clock=time.monotonic)
        layers.install(tracer)

    first: dict[str, float] = {}

    def mark(fn):
        @functools.wraps(fn)
        def entry(*a, **k):
            if not first:
                first["wall"] = time.monotonic()
                first["cpu"] = time.process_time()
                if args.mode == "setup":
                    raise SetupReached
            return fn(*a, **k)

        return entry

    originals = {name: getattr(cli, name) for name in PIPELINE_ENTRIES}
    for name, fn in originals.items():
        setattr(cli, name, mark(fn))
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    problems: list[str] = []
    try:
        code = cli.main(cli_args)
    except SetupReached:
        args.result.write_text(json.dumps({"first": first["wall"]}))
        return 0
    except Exception as exc:  # a verb that crashes is a failed pass, still timed
        code = 1
        problems.append(f"the verb raised {exc!r}")
    end_wall, end_cpu = time.monotonic(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, fn in originals.items():
        setattr(cli, name, fn)
    overhead_s = None
    if tracer is not None:
        tracer.restore()
        args.spans.write_text(json.dumps(tracer.spans))
        overhead_s = len(tracer.spans) * span_cost(tracer.clock) + tracer.count_s
    if not first:
        raise SystemExit("the verb never reached the pipeline")

    out = Path(cli_args[cli_args.index("--out") + 1])
    if code != 0:
        problems.append(f"exit code {code}")
    # the gate also reads the tables of a pass that exited non-zero, so a
    # change to the certified numerics shows in max_kernel_tv and pass_ratio
    try:
        max_kernel_tv = GATES[args.workload](out, problems)
    except Exception as exc:
        problems.append(f"no certificate to read: {exc!r}")
        max_kernel_tv = NO_CERTIFICATE_TV
    tables = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.json"))
    }
    result = {
        "first": first["wall"],
        "end": end_wall,
        "solve_s": end_wall - first["wall"],
        "cpu_s": end_cpu - first["cpu"],
        "peak_rss_mb": peak_rss_mb,
        "max_kernel_tv": max_kernel_tv,
        "overhead_s": overhead_s,
        "problems": problems,
        "tables": tables,
        "versions": _versions(),
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
