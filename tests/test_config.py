"""Config validation: every rejection path, the echo, file loading."""

import json
import math

import pytest

from opuclab import opuc
from opuclab.config import (
    EXPERIMENTS,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from opuclab.errors import ConfigError
from opuclab.families import FAMILIES, build_family

GOOD = {
    "family": {"name": "bernstein_szego", "r": 0.5},
    "grid_size": 4096,
    "n_list": [4, 16],
    "experiment": "mnt",
}


def _variant(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in GOOD.items()}
    data.update(overrides)
    return data


def test_minimal_config_accepts_defaults():
    cfg = config_from_dict(_variant())
    assert cfg.grid_size == 4096
    assert cfg.n_list == (4, 16)
    assert cfg.test_points is None
    assert cfg.output_path == "out"
    assert cfg.delta_grid_size == 64
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"grid_size": 255},
        {"grid_size": 3000},
        {"grid_size": 128},
        {"grid_size": 4096.0},
        {"n_list": []},
        {"n_list": [4, 4]},
        {"n_list": [16, 4]},
        {"n_list": [0, 4]},
        {"n_list": [4.5]},
        {"n_list": [True]},
        {"n_list": [4, 512]},  # exceeds grid_size/16
        {"experiment": "spectral"},
        {"test_points": []},
        {"test_points": ["north"]},
        {"output_path": ""},
        {"delta_grid_size": 1},
        {"delta_grid_size": 64.0},
        {"seed": "seven"},
        {"seed": True},
        {"family": {"name": "bernstein_szego", "r": 1.0}},
        {"family": {"name": "bernstein_szego"}},
        {"family": {"name": "bernstein_szego", "r": 0.5, "q": 1}},
        {"family": {"name": "geronimus", "a": 0.0}},
        {"family": {"name": "ell2", "c": 0.5, "p": 0.0}},
        {"family": {"name": "ell2", "c": 1.0, "p": 1.0}},
        {"family": {"name": "vortex"}},
        {"family": "lebesgue"},
        {"extra_key": 1},
        # below ell2's grid floor: 265 parameters need 14840 nodes
        {"family": {"name": "ell2", "c": 0.5, "p": 1.0}, "n_list": [256]},
        {"test_points": [float("nan")]},
        # non-finite family arguments
        {"family": {"name": "bernstein_szego", "r": math.nan}},
        {"family": {"name": "ell2", "c": 0.5, "p": math.inf}},
        # test points whose nearest grid node carries an atom
        {
            "family": {"name": "geronimus", "a": 0.6},
            "experiment": "all",
            "test_points": [0.0, 1.3, 3.0],
        },
        {
            "family": {
                "name": "mixed",
                "base": {"name": "lebesgue"},
                "atoms": [{"angle": 0.0, "mass": 0.2}],
            },
            "experiment": "scattering",
            "test_points": [1.3, 2 * math.pi],
        },
        # test_points that is not a list
        {"test_points": 5},
        {"test_points": 1.5},
        # passes grid_size/16, but build depth 513 exceeds opuc.N_MAX
        {"grid_size": 8192, "n_list": [512]},
        # the parameter routes read moment order min(64, 33) = 33 > 256/8
        {"grid_size": 256, "experiment": "schur_identities"},
        {"grid_size": 256, "experiment": "all"},
    ],
)
def test_rejections(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(_variant(**overrides))


def test_refusals_at_the_extraction_limits_stop_there():
    # n = 511 builds to depth N_MAX; on 256 nodes only the parameter-route
    # suites read moments past N/8
    config_from_dict(_variant(grid_size=8192, n_list=[opuc.N_MAX - 1]))
    for name in ("mnt", "entropy", "summability", "scattering"):
        config_from_dict(_variant(grid_size=256, experiment=name))


@pytest.mark.parametrize("missing", ["family", "n_list", "experiment"])
def test_required_keys(missing):
    data = _variant()
    del data[missing]
    with pytest.raises(ConfigError, match=missing):
        config_from_dict(data)


def test_every_experiment_name_accepted():
    for name in EXPERIMENTS:
        cfg = config_from_dict(_variant(experiment=name))
        assert cfg.experiment == name


def test_mixed_family_validation():
    good = {
        "name": "mixed",
        "base": {"name": "bernstein_szego", "r": 0.3},
        "atoms": [{"angle": 2.0, "mass": 0.2}],
    }
    cfg = config_from_dict(_variant(family=good))
    assert cfg.family["atoms"][0]["mass"] == 0.2
    # an atom off the grid nodes leaves the test point at its angle valid
    off_node = dict(good, atoms=[{"angle": 1.3, "mass": 0.2}])
    cfg = config_from_dict(
        _variant(family=off_node, experiment="all", test_points=[1.3])
    )
    assert cfg.test_points == (1.3,)

    bad = [
        {"name": "mixed", "base": {"name": "geronimus", "a": 0.5},
         "atoms": [{"angle": 2.0, "mass": 0.2}]},
        {"name": "mixed", "base": {"name": "lebesgue"}, "atoms": []},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 7.0, "mass": 0.2}]},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 2.0, "mass": 0.0}]},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 2.0, "mass": math.nan}]},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 1.0, "mass": 0.6}, {"angle": 2.0, "mass": 0.6}]},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 2.0, "mass": 0.2, "label": "x"}]},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 2 * math.pi, "mass": 0.2}]},
        {"name": "mixed", "base": {"name": "lebesgue"},
         "atoms": [{"angle": 1.0, "mass": 0.2}, {"angle": 1.0, "mass": 0.1}]},
    ]
    for family in bad:
        with pytest.raises(ConfigError):
            config_from_dict(_variant(family=family))


SPECS = {
    "lebesgue": {"name": "lebesgue"},
    "bernstein_szego": {"name": "bernstein_szego", "r": 0.5},
    "geronimus": {"name": "geronimus", "a": 0.6},
    "ell2": {"name": "ell2", "c": 0.5, "p": 1.0},
    "mixed": {
        "name": "mixed",
        "base": {"name": "lebesgue"},
        "atoms": [{"angle": 2.0, "mass": 0.2}],
    },
}


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_grid_floor_is_exact(name, n):
    spec = SPECS[name]
    depth = config_from_dict(
        _variant(family=spec, grid_size=1 << 16, n_list=[n])
    ).build_depth
    floor = FAMILIES[name].min_grid(depth)
    # the smallest power of two the other grid rules allow, raised to the
    # smallest one at or above the family's floor
    allowed = max(256, 16 * n)
    grid = allowed
    while grid < floor:
        grid *= 2
    cfg = config_from_dict(_variant(family=spec, grid_size=grid, n_list=[n]))
    build_family(cfg.family, grid, cfg.build_depth)  # accepted, so it builds
    if grid > allowed:  # only the floor refuses the next grid down, and
        # the refusal names the grid it needs
        needs = f"at least {floor} nodes, so grid_size {grid} or more"
        with pytest.raises(ConfigError, match=needs):
            config_from_dict(
                _variant(family=spec, grid_size=grid // 2, n_list=[n])
            )


def test_echo_roundtrips_through_the_validator():
    cfg = config_from_dict(
        _variant(test_points=[0.0, 3.1], seed=7, output_path="results")
    )
    echoed = cfg.echo()
    again = config_from_dict(echoed)
    assert again == cfg
    json.dumps(echoed)  # must already be JSON-ready


def test_constructor_accepts_keyword_form():
    cfg = ExperimentConfig(
        family={"name": "lebesgue"}, n_list=(4,), experiment="all"
    )
    assert cfg.family == {"name": "lebesgue"}


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(GOOD), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.experiment == "mnt"

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
