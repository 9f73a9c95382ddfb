"""Scattering experiment on the square-summable decay family.

The deep sweep needs the fine grid: the order-264 truncation behind
ell2(0.5, 1) at n up to 256 builds on 16384 nodes, which resolve this
suite.  They do not resolve every suite: ``all`` at that depth fails
three verdicts on 16384 nodes and passes on 32768 (README, Grid sizes).
The averaged deviation columns in the CSV should shrink as n doubles.
"""

import sys

from opuclab import config_from_dict, run_experiment, write_outputs


def main() -> int:
    config = config_from_dict({
        "family": {"name": "ell2", "c": 0.5, "p": 1.0},
        "grid_size": 16384,
        "n_list": [64, 128, 256],
        "experiment": "scattering",
        "output_path": "out/scattering_ell2",
        "seed": 1,
    })
    outcome = run_experiment(config)
    write_outputs(outcome, config.output_path)
    for verdict in outcome.verdicts:
        tail = verdict.detail if verdict.residual is None else (
            format(verdict.residual, ".3g")
        )
        print(f"{verdict.status.upper():>4}  {verdict.name}  ({tail})")
    print(f"wrote {config.output_path}")
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    sys.exit(main())
