#!/usr/bin/env python3
"""Extract a scenario and print its fiber atlas over an integer window.

Every lattice point in the window is pushed through the sketch; points
sharing a sketch value share a row. The atlas makes the coset geometry
visible: parity splits the window into two interleaved classes, mod-3
into three stripes, the constant scenario into a single cell.

Usage:
    python scripts/fiber_atlas.py [scenario] [route] [window]

An unknown scenario or route, or a window that is not a positive
integer, exits 2 with one line on stderr; an extraction that fails exits
1 with one line naming the scenario, the route and the failure.
"""

import sys
from itertools import product

from sketchlab.cli import ExperimentConfig, get_scenario, transfer_config
from sketchlab.streaming import SelectionFailed
from sketchlab.transfer import SketchExtractionError, extract_sketch, fiber_census


def main(argv: list[str]) -> int:
    scenario_name = argv[0] if len(argv) > 0 else "parity"
    route = argv[1] if len(argv) > 1 else "exact"
    try:
        window = int(argv[2]) if len(argv) > 2 else 3
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        cfg = ExperimentConfig(M=2, Q=8 if route == "mollified" else 2048,
                               scenario=scenario_name, route=route)
        scenario = get_scenario(scenario_name)
        tcfg = transfer_config(cfg, scenario)
    except ValueError as exc:
        # UsageError and ConfigError are ValueErrors; a ConfigError lists
        # its violations on several lines
        print(f"fiber_atlas.py: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    try:
        sketch, decoder, _ = extract_sketch(
            scenario.algorithm,
            scenario.target,
            scenario.problem(cfg),
            route,
            tcfg,
            cfg.seed,
        )
    except (SketchExtractionError, SelectionFailed, ValueError, RuntimeError) as exc:
        print(f"fiber_atlas.py: extract failed for scenario {scenario_name!r} "
              f"on the {route} route: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
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
    sys.exit(main(sys.argv[1:]))
