"""Command line front end: run experiments, verify invariants, list families.

Usage:

    opuclab run --config experiment.json --out results/
    opuclab verify --config experiment.json
    opuclab families

``run`` writes the CSV tables and report.json and prints one line per
invariant verdict; ``verify`` runs the same checks and tables and prints
the verdicts without touching the filesystem.  Both exit 0 when nothing
failed, 1 on failed verdicts, and 2 on a bad config.
"""

from __future__ import annotations

import sys

import click

from .config import ExperimentConfig, load_config
from .errors import ConfigError
from .experiments import ExperimentOutcome, run_experiment, write_outputs
from .families import FAMILY_DESCRIPTIONS


def _load(path: str) -> ExperimentConfig:
    try:
        return load_config(path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)


def _echo_verdicts(outcome: ExperimentOutcome) -> None:
    for verdict in outcome.verdicts:
        if verdict.residual is None:
            tail = verdict.detail
        else:
            tail = format(verdict.residual, ".3g")
        click.echo(f"{verdict.status.upper():>4}  {verdict.name}  ({tail})")
    counts = outcome.report["summary"]
    click.echo(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped"
    )


@click.group()
def main() -> None:
    """Orthogonal polynomials on the unit circle: experiment runner."""


@main.command()
@click.option("--config", "config_path", required=True, help="JSON config path")
@click.option(
    "--out",
    "out_dir",
    default=None,
    help="Output directory (default: the config's output_path)",
)
def run(config_path: str, out_dir: str | None) -> None:
    """Run the configured experiment; write tables and report.json."""
    config = _load(config_path)
    outcome = run_experiment(config)
    target = out_dir if out_dir is not None else config.output_path
    written = write_outputs(outcome, target)
    _echo_verdicts(outcome)
    click.echo(f"wrote {len(written)} files to {target}")
    sys.exit(1 if outcome.failed else 0)


@main.command()
@click.option("--config", "config_path", required=True, help="JSON config path")
def verify(config_path: str) -> None:
    """Run the experiment as ``run`` does, tables included; write no files."""
    config = _load(config_path)
    outcome = run_experiment(config)
    _echo_verdicts(outcome)
    sys.exit(1 if outcome.failed else 0)


@main.command()
def families() -> None:
    """List the builtin measure families and their arguments."""
    width = max(len(name) for name in FAMILY_DESCRIPTIONS)
    for name, text in FAMILY_DESCRIPTIONS.items():
        click.echo(f"{name:<{width}}  {text}")


if __name__ == "__main__":
    main()
