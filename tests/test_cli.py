"""End-to-end CLI behavior through click's test runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import opuclab
from opuclab import experiments
from opuclab.cli import main
from opuclab.errors import FamilyValidationError

CONFIG = {
    "family": {"name": "bernstein_szego", "r": 0.5},
    "grid_size": 4096,
    "n_list": [4, 16],
    "experiment": "mnt",
    "seed": 3,
}


@pytest.fixture()
def runner():
    return CliRunner()


def _write_config(path, **overrides):
    data = dict(CONFIG)
    data.update(overrides)
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_families_lists_builders(runner):
    result = runner.invoke(main, ["families"])
    assert result.exit_code == 0
    for name in ("lebesgue", "bernstein_szego", "geronimus", "ell2", "mixed"):
        assert name in result.output


def test_run_writes_outputs(runner, tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "results"
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "5 passed, 0 failed, 0 skipped" in result.output
    # one CSV per certified angle (the family has two) plus the report
    assert "wrote 3 files" in result.output

    csv_lines = (out / "mnt.csv").read_text().splitlines()
    assert csv_lines[0] == "n,cesaro,target,lower,upper,K_n,P_n,F_n"
    assert len(csv_lines) == 3

    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["fail"] == 0
    assert report["config"]["seed"] == 3


def test_out_defaults_to_the_config_path(runner, tmp_path):
    out = tmp_path / "from_config"
    cfg = _write_config(tmp_path / "cfg.json", output_path=str(out))
    result = runner.invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 0, result.output
    assert (out / "report.json").exists()


def test_reruns_are_byte_identical(runner, tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", experiment="all")
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        result = runner.invoke(
            main, ["run", "--config", cfg, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
    for path in sorted(first.iterdir()):
        if path.name == "report.json":
            continue  # report carries wall-clock runtime
        assert path.read_bytes() == (second / path.name).read_bytes()
    blob_a = json.loads((first / "report.json").read_text())
    blob_b = json.loads((second / "report.json").read_text())
    blob_a.pop("runtime")
    blob_b.pop("runtime")
    assert blob_a == blob_b


def test_verify_reports_without_writing(runner, tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    result = runner.invoke(main, ["verify", "--config", cfg])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert not (tmp_path / "out").exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_verify_exits_one_on_failure(runner, tmp_path, monkeypatch):
    # a build failure that validation cannot foresee must surface as a
    # failing verdict and exit code 1
    def refuse(spec, grid_size, n_max):
        raise FamilyValidationError("roundtrip off by 1 at depth 33")

    monkeypatch.setattr(experiments, "build_family", refuse)
    cfg = _write_config(tmp_path / "cfg.json")
    result = runner.invoke(main, ["verify", "--config", cfg])
    assert result.exit_code == 1
    assert "FAIL  family_build" in result.output
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_verify_exits_one_on_a_failing_table(runner, tmp_path, monkeypatch):
    # verify renders the tables as run does, so a table that raises fails
    # the run; it still writes nothing
    def broken(ctx, angle):
        raise ZeroDivisionError("table row")

    header, _, per_point = experiments.TABLES["mnt"]
    monkeypatch.setitem(experiments.TABLES, "mnt", (header, broken, per_point))
    cfg = _write_config(tmp_path / "cfg.json")
    result = runner.invoke(main, ["verify", "--config", cfg])
    assert result.exit_code == 1
    assert "FAIL  mnt_tables" in result.output
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_bad_config_exits_two(runner, tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", grid_size=1000)
    result = runner.invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 2
    assert "config error" in result.output

    result = runner.invoke(
        main, ["run", "--config", str(tmp_path / "nope.json")]
    )
    assert result.exit_code == 2

    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([CONFIG]), encoding="utf-8")
    result = runner.invoke(main, ["verify", "--config", str(listed)])
    assert result.exit_code == 2
    assert "config must be a JSON object" in result.output


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"test_points": 5}, "test_points = 5 must be a list"),
        ({"grid_size": 8192, "n_list": [512]}, "N_MAX"),
        ({"grid_size": 256, "experiment": "schur_identities"}, "route depth"),
        ({"grid_size": 256, "experiment": "all"}, "route depth"),
        ({"n_list": None}, "n_list = None must be a list"),
        ({"n_list": 5}, "n_list = 5 must be a list"),
        ({"family": {"name": ["lebesgue"]}}, "unknown family ['lebesgue']"),
        ({"family": {"name": {"lebesgue": 1}}}, "unknown family {'lebesgue': 1}"),
        (
            {
                "family": {
                    "name": "mixed",
                    "base": {"name": ["lebesgue"]},
                    "atoms": [{"angle": 2.0, "mass": 0.2}],
                }
            },
            "unknown family ['lebesgue'] in family.base",
        ),
        # sampling on 4096 nodes moves a_0 by 3.27e-5 past the build's bound
        (
            {
                "family": {"name": "bernstein_szego", "r": 0.999},
                "experiment": "entropy",
            },
            "family.r = 0.999 needs a finer grid than 4096 nodes",
        ),
        # the build holds, but grid doubling moves the Poisson means by 2.2e-9
        (
            {
                "family": {
                    "name": "mixed",
                    "base": {"name": "bernstein_szego", "r": 0.995},
                    "atoms": [{"angle": 2.0, "mass": 0.2}],
                },
                "experiment": "mnt",
            },
            "mixed needs a finer grid than 4096 nodes for experiment 'mnt'",
        ),
    ],
    ids=[
        "test_points",
        "n_max",
        "schur_identities_256",
        "all_256",
        "n_list_null",
        "n_list_number",
        "name_list",
        "name_object",
        "mixed_base_name_list",
        "bernstein_szego_a0_gap",
        "mixed_base_refinement",
    ],
)
def test_configs_that_cannot_run_exit_two(runner, tmp_path, overrides, reason):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    result = runner.invoke(main, ["verify", "--config", cfg])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert reason in result.output


def test_a_run_imports_no_mpmath():
    # geronimus escalates its series cascade and its moment recursion to
    # fixed point; a fresh interpreter runs it and never imports mpmath
    script = (
        "import sys\n"
        "from opuclab import config_from_dict, run_experiment\n"
        "config = config_from_dict({'family': {'name': 'geronimus', 'a': 0.6}, "
        "'grid_size': 4096, 'n_list': [4, 16, 64], 'experiment': 'all'})\n"
        "print(run_experiment(config).report['summary'])\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(opuclab.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "False"
