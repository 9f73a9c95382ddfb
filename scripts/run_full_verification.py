"""Every invariant suite on every builtin family, one line per verdict.

Besides one config per family it runs bernstein_szego near its radius
limit (r = 0.9) and a mixed measure with three atoms on a Lebesgue base,
so atom handling with several atoms is covered.  The grid per family
follows the resolution notes in the README: 4096 suffices except for
ell2, whose order-n quantities at n = 64 want a comfortable margin over
the 56-nodes-per-parameter floor.
"""

import math
import sys

from opuclab import config_from_dict, run_experiment

FAMILIES = [
    ({"name": "lebesgue"}, 4096),
    ({"name": "bernstein_szego", "r": 0.5}, 4096),
    ({"name": "geronimus", "a": 0.6}, 4096),
    ({"name": "ell2", "c": 0.5, "p": 1.0}, 8192),
    (
        {
            "name": "mixed",
            "base": {"name": "bernstein_szego", "r": 0.3},
            "atoms": [{"angle": 2.0, "mass": 0.2}],
        },
        4096,
    ),
    ({"name": "bernstein_szego", "r": 0.9}, 4096),
    (
        {
            "name": "mixed",
            "base": {"name": "lebesgue"},
            "atoms": [
                {"angle": 0.0, "mass": 0.1},
                {"angle": 1.0, "mass": 0.1},
                {"angle": math.pi, "mass": 0.1},
            ],
        },
        4096,
    ),
]


def main() -> int:
    failed = 0
    for family, grid_size in FAMILIES:
        config = config_from_dict({
            "family": family,
            "grid_size": grid_size,
            "n_list": [4, 16, 64],
            "experiment": "all",
            "seed": 1,
        })
        outcome = run_experiment(config)
        counts = outcome.report["summary"]
        name = outcome.report["family"].get("name", family["name"])
        print(f"== {name} (grid {grid_size})")
        for verdict in outcome.verdicts:
            if verdict.status != "pass":
                print(f"  {verdict.status.upper()}  {verdict.name}: "
                      f"{verdict.detail}")
        print(
            f"  {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['skip']} skip"
        )
        failed += counts["fail"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
