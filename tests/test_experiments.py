"""Verdict engine: suite wiring, reports, tables, failure surfacing."""

import math
import struct
import warnings

import numpy as np
import pytest

from opuclab import asymptotics, experiments, families, opuc, scattering
from opuclab.asymptotics import (
    csv_text,
    strong_cesaro_deviation,
    summability_condition,
)
from opuclab.config import config_from_dict
from opuclab.errors import ConfigError, FamilyValidationError, PositivityLoss
from opuclab.experiments import (
    CHECKS,
    SUITE_NAMES,
    run_experiment,
    write_outputs,
)
from opuclab.families import build_family
from opuclab.measure import CircleMeasure

from oracles import (
    cd_three_route_per_point,
    phi_star_zero_free_per_point,
    scattering_rows_per_n,
)

MIXED = {
    "name": "mixed",
    "base": {"name": "bernstein_szego", "r": 0.3},
    "atoms": [{"angle": 2.0, "mass": 0.2}],
}


def _config(**overrides):
    data = {
        "family": {"name": "bernstein_szego", "r": 0.5},
        "grid_size": 4096,
        "n_list": [4, 16],
        "experiment": "mnt",
        "seed": 3,
    }
    data.update(overrides)
    return config_from_dict(data)


def test_check_names_are_unique_and_cover_all():
    seen = [name for suite in SUITE_NAMES for name, _ in CHECKS[suite]]
    assert len(seen) == len(set(seen)) == 27
    # 'all' runs every suite once, so every name appears exactly once
    outcome = run_experiment(_config(experiment="all"))
    names = [v.name for v in outcome.verdicts]
    assert sorted(names) == sorted(seen)


def test_mnt_run_passes_and_orders_verdicts():
    outcome = run_experiment(_config())
    assert not outcome.failed
    assert [v.name for v in outcome.verdicts] == [
        "poisson_positivity",
        "fejer_density_limit",
        "quadrature_refinement",
        "cesaro_sandwich",
        "fejer_lower_bound",
    ]
    assert [v.name for v in outcome.verdicts] == [n for n, _ in CHECKS["mnt"]]
    assert all(v.status == "pass" for v in outcome.verdicts)
    assert outcome.report["summary"] == {"pass": 5, "fail": 0, "skip": 0}
    assert outcome.report["family"]["kind"] == "bernstein_szego"
    assert outcome.report["schema"] == 1


def test_tables_follow_the_sweep_points():
    outcome = run_experiment(_config(test_points=[0.0, 3.1]))
    assert set(outcome.tables) == {"mnt.csv", "mnt_2.csv"}
    header = outcome.tables["mnt.csv"].splitlines()[0]
    assert header == "n,cesaro,target,lower,upper,K_n,P_n,F_n"
    assert outcome.report["suites"]["mnt"]["tables"] == ["mnt.csv", "mnt_2.csv"]


def test_a_failing_table_is_a_verdict(monkeypatch):
    def broken(ctx, angle):
        raise ZeroDivisionError("table row")

    monkeypatch.setitem(experiments._TABLE_BUILDERS, "mnt", broken)
    outcome = run_experiment(_config())
    assert outcome.failed
    verdict = outcome.verdicts[-1]
    assert (verdict.name, verdict.status) == ("mnt_tables", "fail")
    assert verdict.detail == "ZeroDivisionError: table row"
    assert outcome.tables == {}
    assert outcome.report["suites"]["mnt"]["tables"] == []


def test_mixed_atoms_on_the_default_angles_pass_scattering():
    # atoms near 0, 1 and pi leave no default angle free; the certified
    # angle is then the midpoint of the widest gap between atoms
    family = {
        "name": "mixed",
        "base": {"name": "lebesgue"},
        "atoms": [
            {"angle": 0.0, "mass": 0.1},
            {"angle": 1.0, "mass": 0.1},
            {"angle": math.pi, "mass": 0.1},
        ],
    }
    outcome = run_experiment(_config(family=family, experiment="scattering"))
    assert outcome.report["family"]["certified_angles"] == [1.5 * math.pi]
    assert [v.status for v in outcome.verdicts] == ["pass"] * 3
    assert set(outcome.tables) == {"scattering.csv"}


def test_runs_are_deterministic():
    first = run_experiment(_config(experiment="all"))
    second = run_experiment(_config(experiment="all"))
    assert first.tables == second.tables
    for a, b in zip(first.verdicts, second.verdicts):
        assert a == b
    report_a = dict(first.report)
    report_b = dict(second.report)
    report_a.pop("runtime")
    report_b.pop("runtime")
    assert report_a == report_b


def test_family_build_failure_is_a_verdict(monkeypatch):
    # validation refuses what it can foresee; a build that fails anyway
    # must still surface as a single failing verdict
    def refuse(spec, grid_size, n_max):
        raise FamilyValidationError("roundtrip off by 1 at depth 33")

    monkeypatch.setattr(experiments, "build_family", refuse)
    outcome = run_experiment(_config())
    assert outcome.failed
    assert len(outcome.verdicts) == 1
    verdict = outcome.verdicts[0]
    assert verdict.name == "family_build"
    assert verdict.status == "fail"
    assert "FamilyValidationError" in verdict.detail
    assert outcome.report["suites"] == {
        "family_build": {"verdicts": [verdict.to_json()], "tables": []}
    }
    assert outcome.report["family"] == {}


def _refused_and_quiet(c, p, message):
    """Validation refuses ell2(c, p) at depth 257 on 32768 nodes, and
    sampling its density anyway raises PositivityLoss with ``message``
    and no numpy warning."""
    with pytest.raises(ConfigError, match="past 3 its density"):
        _config(
            family={"name": "ell2", "c": c, "p": p}, grid_size=32768, n_list=[256]
        )
    params = families.FAMILIES["ell2"].parameters(257, c=c, p=p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PositivityLoss, match=message):
            opuc.weight_from_parameters(params, 32768)
    assert caught == []


def test_density_out_of_double_range_fails_the_build_quietly():
    # ell2(0.9, 0.3) at depth 257 loses 57 digits, so validation refuses it
    # (exit 2); its density underflows |phi_K| at a grid node, which is a
    # PositivityLoss, not a 1/0 warning
    _refused_and_quiet(0.9, 0.3, "at grid node")


def test_coefficients_out_of_double_range_fail_the_build_quietly():
    # ell2(0.9999999, 0.001) at depth 257 is refused too; the coefficients
    # of its phi_K grow past any double, and sampling stops at the order
    # where they leave the range, before an overflow warning
    _refused_and_quiet(0.9999999, 0.001, "phi_113 has a coefficient")


def test_geronimus_refinement_skips():
    cfg = _config(family={"name": "geronimus", "a": 0.6})
    outcome = run_experiment(cfg)
    by_name = {v.name: v for v in outcome.verdicts}
    assert by_name["quadrature_refinement"].status == "skip"
    assert not outcome.failed  # skips do not fail a run


def test_write_outputs(tmp_path):
    outcome = run_experiment(_config(test_points=[0.0]))
    names = write_outputs(outcome, tmp_path)
    assert names == ["mnt.csv", "report.json"]
    body = (tmp_path / "mnt.csv").read_bytes()
    assert body == outcome.tables["mnt.csv"].encode()
    assert (tmp_path / "report.json").read_text().endswith("}\n")


def test_verdict_to_json_shape():
    outcome = run_experiment(_config())
    entry = outcome.verdicts[0].to_json()
    assert set(entry) == {"name", "status", "residual", "detail"}


def test_summability_run_makes_one_coefficient_pass(monkeypatch):
    orders = []
    coefficients = experiments.cmv_coefficients

    def counted(mu, params, f_samples, n_max, f_atom_values=None):
        orders.append(n_max)
        return coefficients(mu, params, f_samples, n_max, f_atom_values)

    monkeypatch.setattr(experiments, "cmv_coefficients", counted)
    cfg = _config(
        family=MIXED,
        experiment="summability",
        n_list=[4, 16, 64, 200],
        test_points=[0.0, 2.5],
    )
    outcome = run_experiment(cfg)
    assert not outcome.failed
    assert len(outcome.tables) == 2
    assert orders == [200]


@pytest.mark.parametrize(
    "family, grid_size, route",
    [
        (MIXED, 4096, "chi_sums_fft"),
        ({"name": "ell2", "c": 0.5, "p": 1.0}, 16384, "chi_sums_fft"),
        # 13.5 digits of loss over 64 parameters: past the gate
        ({"name": "geronimus", "a": 0.6}, 4096, "chi_sums"),
    ],
    ids=["mixed", "ell2", "geronimus"],
)
def test_summability_run_takes_the_gated_route(
    monkeypatch, family, grid_size, route
):
    taken = []

    def recorded(name):
        run = getattr(asymptotics, name)

        def wrapper(*args):
            taken.append(name)
            return run(*args)

        return wrapper

    for name in ("chi_sums", "chi_sums_fft"):
        monkeypatch.setattr(asymptotics, name, recorded(name))
    cfg = _config(
        family=family,
        grid_size=grid_size,
        experiment="summability",
        n_list=[4, 16, 64],
    )
    outcome = run_experiment(cfg)
    assert not outcome.failed
    assert taken == [route]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="geronimus(0.3) Jost averages rise 1.95e-6 from n = 4 to 16",
)
def test_geronimus_short_sweep_passes_averaged_decay_trend():
    cfg = _config(
        family={"name": "geronimus", "a": 0.3}, experiment="all", n_list=[4, 16]
    )
    by_name = {v.name: v for v in run_experiment(cfg).verdicts}
    assert by_name["averaged_decay_trend"].status == "pass", by_name[
        "averaged_decay_trend"
    ].detail


def _grid_reads(monkeypatch, cfg):
    """Run cfg; return the outcome and how often the grid was evaluated."""
    reads = []
    evaluate = CircleMeasure.boundary_points.fget

    def counted(mu):
        reads.append(mu.grid_size)
        return evaluate(mu)

    monkeypatch.setattr(CircleMeasure, "boundary_points", property(counted))
    return run_experiment(cfg), len(reads)


def test_mnt_run_evaluates_the_grid_once_per_batch(monkeypatch):
    cfg = _config(
        family=MIXED,
        grid_size=16384,
        n_list=[4, 16, 64, 256],
        delta_grid_size=256,
    )
    outcome, reads = _grid_reads(monkeypatch, cfg)
    assert not outcome.failed
    # one read per batch of interior points; one per point would be ~4200
    assert reads < 100, reads


def test_all_run_evaluates_the_grid_once_per_batch(monkeypatch):
    cfg = _config(
        family={"name": "ell2", "c": 0.5, "p": 1.0},
        grid_size=8192,
        n_list=[4, 16, 64],
        experiment="all",
    )
    outcome, reads = _grid_reads(monkeypatch, cfg)
    assert not outcome.failed
    # Herglotz and outer-function values read the grid once per batch;
    # once per interior point is 120 reads
    assert reads < 60, reads


def test_summability_table_matches_the_public_functions():
    cfg = _config(
        family=MIXED,
        experiment="summability",
        n_list=[4, 16, 64, 200],
        test_points=[0.0, 2.5],
    )
    outcome = run_experiment(cfg)
    inst = build_family(cfg.family, cfg.grid_size, cfg.build_depth)
    mu = inst.measure
    samples = np.cos(mu.angles)
    atom_values = np.array([math.cos(t) for t, _ in mu.atoms])
    for filename, angle in (("summability.csv", 0.0), ("summability_2.csv", 2.5)):
        xi0 = complex(np.exp(1j * angle))
        rows = [
            (
                n,
                strong_cesaro_deviation(
                    mu, inst.params, samples, xi0, math.cos(angle), n,
                    f_atom_values=atom_values,
                ),
                *summability_condition(mu, inst.params, xi0, n),
            )
            for n in cfg.n_list
        ]
        want = csv_text("n,strong_cesaro,condition_lhs,condition_rhs", rows)
        assert outcome.tables[filename] == want


@pytest.mark.parametrize(
    "overrides, refinement",
    [
        (
            {"family": MIXED, "grid_size": 1024, "experiment": "mnt"},
            "quadrature_refinement",
        ),
        (
            {"family": {"name": "geronimus", "a": 0.6}, "experiment": "entropy"},
            "radial_limit",
        ),
    ],
)
def test_refinement_checks_extract_no_parameters(
    monkeypatch, overrides, refinement
):
    # quadrature_refinement (2N grid) and radial_limit (8192 grid) read a
    # measure only, so a run extracts exactly what its family build does
    calls = []
    extract = families.verblunsky_from_measure

    def counted(mu, n_max):
        calls.append(mu.grid_size)
        return extract(mu, n_max)

    monkeypatch.setattr(families, "verblunsky_from_measure", counted)
    cfg = _config(**overrides)
    build_family(cfg.family, cfg.grid_size, cfg.build_depth)
    built = list(calls)
    calls.clear()
    outcome = run_experiment(cfg)
    assert {v.name: v.status for v in outcome.verdicts}[refinement] == "pass"
    assert calls == built


def test_no_residual_is_negative_zero():
    # max(-x, 0.0) gave -0.0 for x = +0.0, and report.json printed it
    cfg = _config(family={"name": "lebesgue"}, experiment="all", seed=1)
    residuals = {
        v.name: v.residual
        for v in run_experiment(cfg).verdicts
        if v.residual is not None
    }
    assert residuals["entropy_nonnegative"] == 0.0
    assert residuals["jensen_direction"] == 0.0
    negative = [
        name for name, r in residuals.items() if math.copysign(1.0, r) < 0.0
    ]
    assert negative == []


_SAMPLED_CHECKS = dict(CHECKS["schur_identities"])


@pytest.mark.parametrize(
    "name, oracle",
    [
        ("phi_star_zero_free", phi_star_zero_free_per_point),
        ("cd_three_route", cd_three_route_per_point),
    ],
    ids=["phi_star_zero_free", "cd_three_route"],
)
@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("family", ["ell2_half", "geronimus6", "mixed_atom"])
def test_sampled_checks_match_their_per_point_form_bitwise(
    name, oracle, seed, family, request
):
    ctx = experiments.RunContext(_config(seed=seed), request.getfixturevalue(family))
    status, residual, detail = _SAMPLED_CHECKS[name](ctx)
    want_status, want_residual, want_detail = oracle(ctx)
    assert (status, detail) == (want_status, want_detail)
    assert struct.pack("<d", residual) == struct.pack("<d", want_residual)


@pytest.mark.parametrize(
    "name, points", [("phi_star_zero_free", 65), ("cd_three_route", 96)]
)
def test_sampled_checks_make_one_transfer_pass(monkeypatch, geronimus6, name, points):
    passes = []
    run = opuc._run_transfer

    def counted(params, zs, n_max, keep_all):
        passes.append(len(zs))
        return run(params, zs, n_max, keep_all)

    monkeypatch.setattr(opuc, "_run_transfer", counted)
    status, _, _ = _SAMPLED_CHECKS[name](
        experiments.RunContext(_config(seed=1), geronimus6)
    )
    assert status == "pass"
    assert passes == [points]


@pytest.mark.parametrize("family", ["bs_half", "mixed_atom", "geronimus6", "ell2_half"])
def test_scattering_table_matches_its_per_n_form_bitwise(family, request, monkeypatch):
    inst = request.getfixturevalue(family)
    ctx = experiments.RunContext(_config(n_list=[4, 16, 64, 200]), inst)
    # the rows as the table hands them to the CSV writer, before formatting
    monkeypatch.setattr(experiments, "csv_text", lambda header, rows: rows)
    for angle in (*inst.test_angles, 2.5):
        want = scattering_rows_per_n(
            inst.measure, inst.params, complex(np.exp(1j * angle)), ctx.n_list
        )
        assert experiments._scattering_table(ctx, angle) == want, (family, angle)


def test_jost_step_defects_run_once_per_solution(monkeypatch, bs_half):
    # with the default test points, solution_space_closure and the
    # scattering table read the same solutions, so their defects are shared
    solutions = []
    step_defects = experiments.jost_step_defects

    def counted(params, sol):
        solutions.append(sol)
        return step_defects(params, sol)

    # both names, so that a residual taken through scattering counts too
    monkeypatch.setattr(experiments, "jost_step_defects", counted)
    monkeypatch.setattr(scattering, "jost_step_defects", counted)
    ctx = experiments.RunContext(_config(experiment="scattering"), bs_half)
    experiments.suite_verdicts(ctx, "scattering")
    experiments.suite_tables(ctx, "scattering")
    assert len(solutions) == 2 * len(bs_half.test_angles)
    assert len({id(sol) for sol in solutions}) == len(solutions)
