#!/usr/bin/env python3
"""Extract a scenario and print its fiber atlas over an integer window.

Every lattice point in the window is pushed through the sketch; points
sharing a sketch value share a row. The atlas makes the coset geometry
visible: parity splits the window into two interleaved classes, mod-3
into three stripes, the constant scenario into a single cell.

Usage:
    python scripts/fiber_atlas.py [scenario] [route] [window]
"""

import sys
from itertools import product

from sketchlab.cli import ExperimentConfig, get_scenario, transfer_config
from sketchlab.transfer import extract_sketch, fiber_census


def main() -> int:
    scenario_name = sys.argv[1] if len(sys.argv) > 1 else "parity"
    route = sys.argv[2] if len(sys.argv) > 2 else "exact"
    window = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    cfg = ExperimentConfig(M=2, Q=8 if route == "mollified" else 2048,
                           scenario=scenario_name, route=route)
    scenario = get_scenario(scenario_name)
    sketch, decoder, _ = extract_sketch(
        scenario.algorithm,
        scenario.target,
        scenario.problem(cfg),
        route,
        transfer_config(cfg, scenario),
        cfg.seed,
    )
    domain = list(product(range(window), repeat=2))
    census = fiber_census(sketch, domain)
    print(f"{scenario_name} [{route}]: dimension {sketch.structure.rank}, "
          f"{census.count} fibers over the {window}x{window} window "
          f"(bound {census.bound})")
    for value in sorted(census.members, key=repr):
        members = census.members[value]
        output = decoder.decode(value) if decoder.covers(value) else "?"
        pts = " ".join(str(p) for p in members)
        print(f"  {value!r} -> {output!r}: {pts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
