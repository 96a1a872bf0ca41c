#!/usr/bin/env python3
"""Run every verb once and collect the tables under out/suite.

The inequality suite and the small-ball battery run on the stock config;
each registry scenario is extracted on its natural route, and the
constant and parity scenarios get the radius sweep. Exit status is the
worst exit status seen, so a red run is visible to CI.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from sketchlab.cli import main

OUT = Path("out/suite")
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


def run(args: list[str]) -> int:
    print(f"$ sketchlab {' '.join(args)}")
    code = main(args)
    print(f"  -> exit {code}")
    return code


def scenario_config(scenario: str, route: str, blocks: int) -> Path:
    text = CONFIG.read_text().replace("M = 8", f"M = {blocks}")
    text = text.replace("scenario = parity", f"scenario = {scenario}")
    text = text.replace("route = exact", f"route = {route}")
    if route == "mollified":
        text = text.replace("Q = 2048", "Q = 8")
    out = Path(tempfile.mkdtemp()) / f"{scenario}.cfg"
    out.write_text(text)
    return out


def run_scenario(verb: str, scenario: str, route: str, blocks: int, out: Path) -> int:
    """Run one verb on a scenario's config, then remove the config's
    temporary directory."""
    cfg = scenario_config(scenario, route, blocks)
    try:
        return run([verb, "--config", str(cfg), "--out", str(out)])
    finally:
        shutil.rmtree(cfg.parent)


def main_suite() -> int:
    worst = 0
    worst = max(worst, run(["verify-lemmas", "--config", str(CONFIG), "--out", str(OUT)]))
    worst = max(worst, run(["smallball", "--config", str(CONFIG), "--out", str(OUT)]))
    runs = [
        ("parity", "exact", 8),
        ("mod-3", "exact", 4),
        ("constant", "exact", 2),
        ("adversarial", "exact", 8),
        ("capped-norm", "mollified", 2),
    ]
    for scenario, route, blocks in runs:
        out = OUT / scenario
        worst = max(worst, run_scenario("extract", scenario, route, blocks, out))
    for scenario in ("constant", "parity"):
        out = OUT / f"sweep-{scenario}"
        worst = max(worst, run_scenario("tv-sweep", scenario, "exact", 2, out))
    worst = max(worst, run(["report", "--out", str(OUT)]))
    return worst


if __name__ == "__main__":
    sys.exit(main_suite())
