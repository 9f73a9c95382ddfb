"""Config validation: every rejection path, the echo, file loading."""

import json
import math

import numpy as np
import pytest

from opuclab import opuc, run_experiment
from opuclab.config import (
    EXPERIMENTS,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from opuclab.errors import ConfigError
from opuclab.families import (
    FAMILIES,
    REFINEMENT_PROBES,
    REFINEMENT_TOLERANCE,
    bernstein_szego_grid_errors,
    build_family,
)
from opuclab.measure import poisson

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


@pytest.mark.parametrize("data", [[GOOD], "mnt", 4, None])
def test_config_must_be_an_object(data):
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict(data)


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


def _threshold_radius(grid_size: int) -> float:
    """The radius where the closed-form refinement change meets its bound,
    by bisection."""
    low, high = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (low + high)
        _, change = bernstein_szego_grid_errors(mid, grid_size)
        low, high = (low, mid) if change > REFINEMENT_TOLERANCE else (mid, high)
    return low


def _refinement_change(spec: dict, grid_size: int) -> float:
    """The change quadrature_refinement reads, on measures sampled without
    validation."""
    family = FAMILIES[spec["name"]]
    args = {k: v for k, v in spec.items() if k != "name"}
    coarse, fine = (family.measure(n, 0, **args) for n in (grid_size, 2 * grid_size))
    return float(
        np.max(np.abs(poisson(coarse, REFINEMENT_PROBES) - poisson(fine, REFINEMENT_PROBES)))
    )


@pytest.mark.parametrize("as_base", [False, True], ids=["standalone", "mixed_base"])
@pytest.mark.parametrize("grid_size", [1024, 4096, 8192])
def test_bernstein_szego_refused_where_the_grid_cannot_hold_it(grid_size, as_base):
    # r^N half and twice its value at the threshold: the change under grid
    # doubling scales with r^N, so one side passes and the other fails
    edge = _threshold_radius(grid_size)
    below, above = (edge * factor ** (1.0 / grid_size) for factor in (0.5, 2.0))

    def spec(r):
        base = {"name": "bernstein_szego", "r": r}
        if not as_base:
            return base
        return {"name": "mixed", "base": base, "atoms": [{"angle": 2.0, "mass": 0.2}]}

    cfg = config_from_dict(
        _variant(family=spec(below), grid_size=grid_size, n_list=[4, 16])
    )
    outcome = run_experiment(cfg)
    statuses = {v.name: v.status for v in outcome.verdicts}
    assert statuses["quadrature_refinement"] == "pass"
    assert not outcome.failed, [v for v in outcome.verdicts if v.failed]
    assert _refinement_change(spec(below), grid_size) <= REFINEMENT_TOLERANCE

    with pytest.raises(ConfigError, match="needs a finer grid"):
        config_from_dict(_variant(family=spec(above), grid_size=grid_size))
    assert _refinement_change(spec(above), grid_size) > REFINEMENT_TOLERANCE


def test_bernstein_szego_grid_errors_predict_the_build_gap():
    # the sampled a_0 lies r^(N-1) (1 - r^2) / (1 + r^N) above r: the gaps
    # validation used to let through on 4096 nodes
    for r, gap in ((0.997, 2.72e-8), (0.998, 1.1e-6), (0.999, 3.27e-5)):
        predicted, _ = bernstein_szego_grid_errors(r, 4096)
        assert f"{predicted:.3g}" == f"{gap:.3g}", r
        mu = FAMILIES["bernstein_szego"].measure(4096, 0, r=r)
        built = opuc.verblunsky_from_measure(mu, 1).values[0]
        assert abs(abs(built - r) - predicted) < 1e-3 * predicted
