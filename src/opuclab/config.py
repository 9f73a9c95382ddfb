"""Experiment configuration: JSON loading, validation, report echo.

A config file is a single JSON object::

    {
      "family": {"name": "bernstein_szego", "r": 0.5},
      "grid_size": 4096,
      "n_list": [16, 64, 256],
      "test_points": [0.0, 3.141592653589793],
      "experiment": "mnt",
      "output_path": "out",
      "delta_grid_size": 64,
      "seed": 7
    }

``family`` uses the same dictionary shape as :func:`families.build_family`;
``test_points`` are boundary angles and may be omitted (``null``), in which
case the family's certified angles are used.  Every field is validated at
construction time so that a bad config fails with ConfigError before any
computation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, OpuclabError
from .families import FAMILIES, REFINEMENT_TOLERANCE, check_number, check_spec
from .measure import max_trusted_moment, snap
from .opuc import N_MAX
from .schur import ROUTE_DEPTH

SUITE_NAMES = ("mnt", "entropy", "schur_identities", "summability", "scattering")
EXPERIMENTS = SUITE_NAMES + ("all",)

# Orders needed beyond max(n_list): kernel quotients use the (n+1)-st pair
# and several checks are pinned at depth <= 32 regardless of the sweep.
MIN_BUILD_DEPTH = 33


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run."""

    family: dict
    n_list: Tuple[int, ...]
    experiment: str
    grid_size: int = 4096
    test_points: Optional[Tuple[float, ...]] = None
    output_path: str = "out"
    delta_grid_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        n = self.grid_size
        if not isinstance(n, int) or n < 256 or n & (n - 1) != 0:
            raise ConfigError(
                f"grid_size = {n!r} must be a power of two >= 256"
            )

        if not isinstance(self.n_list, (list, tuple)):
            raise ConfigError(
                f"n_list = {self.n_list!r} must be a list of integers"
            )
        n_list = tuple(self.n_list)
        if not n_list:
            raise ConfigError("n_list must be nonempty")
        for value in n_list:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"n_list entry {value!r} is not an integer")
            if value < 1:
                raise ConfigError(f"n_list entry {value!r} must be >= 1")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError(f"n_list {n_list!r} must be strictly increasing")
        if n_list[-1] > n // 16:
            raise ConfigError(
                f"max n_list entry {n_list[-1]} exceeds grid_size/16 = "
                f"{n // 16}; raise grid_size so order-n quantities stay "
                "clear of the quadrature aliasing band"
            )
        object.__setattr__(self, "n_list", n_list)
        if self.build_depth > N_MAX:
            raise ConfigError(
                f"max n_list entry {n_list[-1]} needs build depth "
                f"{self.build_depth}, beyond the parameter cap opuc.N_MAX = "
                f"{N_MAX}"
            )

        if self.test_points is not None and not isinstance(
            self.test_points, (list, tuple)
        ):
            raise ConfigError(
                f"test_points = {self.test_points!r} must be a list of angles "
                "or null"
            )

        try:
            family = check_spec(self.family, n, self.build_depth)
            points = tuple(
                check_number(t, "test_points entry") for t in self.test_points or ()
            )
        except OpuclabError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "family", family)

        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment = {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.experiment in ("mnt", "all"):
            change = FAMILIES[family["name"]].refinement_change(family, n)
            if change > REFINEMENT_TOLERANCE:
                raise ConfigError(
                    f"{family['name']} needs a finer grid than {n} nodes for "
                    f"experiment {self.experiment!r}: its Poisson means move "
                    f"by {change:.3g} when the grid doubles, and "
                    f"quadrature_refinement accepts {REFINEMENT_TOLERANCE:g}; "
                    "raise grid_size"
                )
        if self.experiment in ("schur_identities", "all"):
            order = min(ROUTE_DEPTH, self.build_depth)
            if order > max_trusted_moment(n):
                raise ConfigError(
                    f"experiment {self.experiment!r} reads moments to order "
                    f"{order}, its route depth min(ROUTE_DEPTH, build depth), "
                    f"beyond the trusted band grid_size/8 = "
                    f"{max_trusted_moment(n)}; raise grid_size"
                )

        if self.test_points is not None:
            if not points:
                raise ConfigError("test_points, when given, must be nonempty")
            # F and the Jost solutions divide by zero at a node that is
            # bitwise an atom's point (as atom_points evaluates it)
            atom_angles = FAMILIES[family["name"]].atom_angles(family)
            for t in points:
                _, node = snap(n, np.exp(1j * t))
                atom = next(
                    (a for a in atom_angles if np.exp(1j * a) == node), None
                )
                if atom is not None:
                    raise ConfigError(
                        f"test point {t!r} snaps to a grid node that carries "
                        f"the atom at angle {atom!r}; the boundary data there "
                        "are undefined, so move the point off the atom"
                    )
            object.__setattr__(self, "test_points", points)

        if not isinstance(self.output_path, str) or not self.output_path:
            raise ConfigError("output_path must be a nonempty string")

        if not isinstance(self.delta_grid_size, int) or self.delta_grid_size < 2:
            raise ConfigError(
                f"delta_grid_size = {self.delta_grid_size!r} must be >= 2"
            )

        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed = {self.seed!r} must be an integer")

    @property
    def build_depth(self) -> int:
        """Parameter depth the family is built to for this run."""
        return max(MIN_BUILD_DEPTH, self.n_list[-1] + 1)

    def echo(self) -> dict:
        """The config as a JSON-ready dict, echoed into reports."""
        return {
            "family": self.family,
            "grid_size": self.grid_size,
            "n_list": list(self.n_list),
            "test_points": (
                None if self.test_points is None else list(self.test_points)
            ),
            "experiment": self.experiment,
            "output_path": self.output_path,
            "delta_grid_size": self.delta_grid_size,
            "seed": self.seed,
        }


_CONFIG_KEYS = {field.name for field in fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"unexpected config keys: {sorted(extra)}")
    for required in ("family", "n_list", "experiment"):
        if required not in data:
            raise ConfigError(f"config is missing {required!r}")
    return ExperimentConfig(**data)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
