"""Verdict engine: suite wiring, reports, tables, failure surfacing."""

import math
import struct
from dataclasses import astuple
import tracemalloc
import warnings

import numpy as np
import pytest

from opuclab import asymptotics, experiments, families, opuc, scattering, schur, szego
from opuclab.asymptotics import (
    partial_sum_deviation,
    sandwich_rows,
    summability_conditions,
)
from opuclab.config import config_from_dict
from opuclab.errors import (
    ConfigError,
    EntropyNegative,
    FamilyValidationError,
    PositivityLoss,
)
from opuclab.experiments import (
    CHECKS,
    SUITE_NAMES,
    csv_text,
    run_experiment,
    write_outputs,
)
from opuclab.families import build_family
from opuclab.measure import CircleMeasure, moments

from oracles import (
    cd_three_route_per_point,
    chi_table,
    jost_solutions,
    phi_star_zero_free_per_point,
    sandwich_table,
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
    assert outcome.report["family"]["route"] == families.SERIES_CASCADE
    assert outcome.report["schema"] == 2


def test_tables_follow_the_sweep_points():
    outcome = run_experiment(_config(test_points=[0.0, 3.1]))
    assert set(outcome.tables) == {"mnt.csv", "mnt_2.csv"}
    header = outcome.tables["mnt.csv"].splitlines()[0]
    assert header == "n,cesaro,target,lower,upper,K_n,P_n,F_n"
    assert outcome.report["suites"]["mnt"]["tables"] == ["mnt.csv", "mnt_2.csv"]


def test_a_failing_table_is_a_verdict(monkeypatch):
    def broken(ctx, angle):
        raise ZeroDivisionError("table row")

    header, _, per_point = experiments.TABLES["mnt"]
    monkeypatch.setitem(experiments.TABLES, "mnt", (header, broken, per_point))
    outcome = run_experiment(_config())
    assert outcome.failed
    verdict = outcome.verdicts[-1]
    assert (verdict.name, verdict.status) == ("mnt_tables", "fail")
    assert verdict.detail == "ZeroDivisionError: table row"
    assert outcome.tables == {}
    assert outcome.report["suites"]["mnt"]["tables"] == []


def test_a_raising_check_is_a_verdict(monkeypatch):
    # verdicts never crash the run: a check that raises fails with the
    # exception as its detail, and every other check still reports
    def broken(ctx):
        raise ZeroDivisionError("check body")

    checks = [
        (name, broken if name == "fejer_density_limit" else run)
        for name, run in CHECKS["mnt"]
    ]
    monkeypatch.setitem(CHECKS, "mnt", checks)
    outcome = run_experiment(_config())
    assert [(v.name, v.status) for v in outcome.verdicts] == [
        ("poisson_positivity", "pass"),
        ("fejer_density_limit", "fail"),
        ("quadrature_refinement", "pass"),
        ("cesaro_sandwich", "pass"),
        ("fejer_lower_bound", "pass"),
    ]
    failed = outcome.verdicts[1]
    assert (failed.residual, failed.detail) == (None, "ZeroDivisionError: check body")
    assert outcome.report["summary"] == {"pass": 4, "fail": 1, "skip": 0}


def test_averaged_decay_trend_skips_a_single_order():
    # n_list [1] leaves one order, so there is no doubling step to compare
    outcome = run_experiment(_config(experiment="scattering", n_list=[1]))
    by_name = {v.name: v for v in outcome.verdicts}
    verdict = by_name["averaged_decay_trend"]
    assert (verdict.status, verdict.residual) == ("skip", None)
    assert verdict.detail == "max configured n = 1 leaves no room for doubling steps"


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PositivityLoss, match=message):
            families.FAMILIES["ell2"].measure(32768, 257, c=c, p=p)
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


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_geronimus_passes_all_to_depth_64(a):
    # geronimus(0.9) has the thinnest margin of the builtins:
    # gram_orthonormality reads about 1.99e-9 on 4096 nodes against its
    # 1e-8 bound
    cfg = _config(
        family={"name": "geronimus", "a": a}, experiment="all", n_list=[4, 16, 64]
    )
    outcome = run_experiment(cfg)
    failed = {v.name: v.residual for v in outcome.verdicts if v.failed}
    assert not failed


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


def test_summability_run_makes_one_coefficient_pass(spy):
    orders = spy(lambda mu, params, n_max: n_max, experiments, "cmv_sums")
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
        (MIXED, 4096, "chi_sums_from_moments"),
        ({"name": "ell2", "c": 0.5, "p": 1.0}, 16384, "chi_sums_from_moments"),
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
        run = getattr(opuc, name)

        def wrapper(*args):
            taken.append(name)
            return run(*args)

        return wrapper

    for name in ("chi_sums", "chi_sums_from_moments"):
        monkeypatch.setattr(opuc, name, recorded(name))
    cfg = _config(
        family=family,
        grid_size=grid_size,
        experiment="summability",
        n_list=[4, 16, 64],
    )
    outcome = run_experiment(cfg)
    assert not outcome.failed
    assert taken == [route]


@pytest.mark.parametrize(
    "family, grid_size, experiment, seed",
    [
        ({"name": "lebesgue"}, 512, "all", 7),
        ({"name": "lebesgue"}, 1024, "all", 7),
        ({"name": "bernstein_szego", "r": 0.5}, 256, "entropy", 0),
        ({"name": "lebesgue"}, 256, "entropy", 0),
        (MIXED, 256, "entropy", 0),
    ],
    ids=lambda value: value["name"] if isinstance(value, dict) else str(value),
)
def test_interior_checks_sample_where_the_grid_resolves(
    family, grid_size, experiment, seed
):
    # the grid's Poisson weights at z sum to 1 + 2 Re(z^N / (1 - z^N)); at
    # |z| = 0.99 that tail is 6e-3 on 512 nodes, enough to break positivity
    # and Jensen for the discrete measure, so the sampled radius is capped
    cfg = _config(
        family=family, grid_size=grid_size, experiment=experiment, seed=seed
    )
    failed = [(v.name, v.detail) for v in run_experiment(cfg).verdicts if v.failed]
    assert failed == []


def test_mixed_certified_angles_keep_clear_of_a_heavy_atom():
    # the atom lies at chord 0.348 from angle 1, where its Fejer tail at
    # n = 256 is bounded by 0.211 of the density, past the check's 0.05;
    # angles 0 and pi read 0.016 and 0.011 and stay certified
    family = {
        "name": "mixed",
        "base": {"name": "lebesgue"},
        "atoms": [{"angle": 1.35, "mass": 0.621}],
    }
    assert build_family(family, 8192, 0).test_angles == (0.0, np.pi)
    cfg = _config(family=family, grid_size=8192, n_list=[1, 8, 256], seed=1)
    failed = [(v.name, v.detail) for v in run_experiment(cfg).verdicts if v.failed]
    assert failed == []


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
    for filename, angle in (("summability.csv", 0.0), ("summability_2.csv", 2.5)):
        xi0 = complex(np.exp(1j * angle))
        rows = [
            (
                n,
                partial_sum_deviation(
                    opuc.cmv_sums(mu, inst.params, n - 1)[1],
                    chi_table(inst.params, xi0, n - 1),
                    math.cos(angle),
                ),
                *summability_conditions(
                    mu, chi_table(inst.params, xi0, n), xi0, [n]
                )[0],
            )
            for n in cfg.n_list
        ]
        want = csv_text("n,strong_cesaro,condition_lhs,condition_rhs", rows)
        assert outcome.tables[filename] == want


def test_summability_run_reads_chi_from_the_boundary_table(spy):
    # the partial sums and the condition's lhs read prefixes of one chi
    # table over every read point, with no streamed pass of their own, and
    # one Poisson call per swept point gives every rhs
    tables = spy(lambda phi, phis, xis: phi.shape, experiments, "chi_grid_table")
    streams = spy(lambda params, xis, n_max: n_max, opuc, "_chi_rows")
    rhs_batches = spy(lambda mu, z: np.size(z), asymptotics, "poisson")
    cfg = _config(
        family=MIXED,
        experiment="summability",
        n_list=[4, 16, 64, 200],
        test_points=[0.0, 2.5],
    )
    outcome = run_experiment(cfg)
    assert not outcome.failed
    assert len(tables) == 1 and tables[0][0] == 201
    assert streams == []
    assert rhs_batches == [len(cfg.n_list)] * len(cfg.test_points)


@pytest.mark.parametrize(
    "name, passes", [("iterate_contractivity", 12), ("entropy_product_identity", 24)]
)
def test_schur_checks_make_one_iterate_pass_per_point(spy, geronimus6, name, passes):
    # each point's iterates come from one pass to its deepest n; the origin
    # of entropy_product_identity reads the parameters instead
    points = spy(
        lambda params, f_value, z, n: z, schur, "_pointwise_iterates", experiments
    )
    check = dict(CHECKS["entropy"] + CHECKS["schur_identities"])[name]
    status, _, _ = check(experiments.RunContext(_config(seed=1), geronimus6))
    assert status == "pass"
    assert len(points) == len(set(points)) == passes


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
def test_refinement_checks_extract_no_parameters(spy, overrides, refinement):
    # quadrature_refinement (2N grid) and radial_limit (8192 grid) read a
    # measure only, so a run extracts exactly what its family build does:
    # the build rule's extraction for mixed, the value recursion geronimus
    # takes directly
    calls = [
        spy(lambda mu, n_max: (mu.grid_size, n_max), families, name)
        for name in ("measured_parameters", "verblunsky_from_measure")
    ]
    cfg = _config(**overrides)
    build_family(cfg.family, cfg.grid_size, cfg.build_depth)
    built = [list(record) for record in calls]
    assert any(built)
    for record in calls:
        record.clear()
    outcome = run_experiment(cfg)
    assert {v.name: v.status for v in outcome.verdicts}[refinement] == "pass"
    assert [list(record) for record in calls] == built


@pytest.mark.parametrize("family", [{"name": "bernstein_szego", "r": 0.5}, MIXED])
def test_cascade_built_runs_keep_three_routes(spy, family):
    # the build took the series cascade, whose prefix is the route cascade's
    # own bits, so the value recursion at the route depth stands in for the
    # stored parameters: two_route_equality compares two routes, not one
    values = spy(lambda mu, n_max: n_max, experiments, "verblunsky_from_measure")
    cfg = _config(family=family, n_list=[4, 16, 64], experiment="all")
    outcome = run_experiment(cfg)
    assert outcome.report["family"]["route"] == families.SERIES_CASCADE
    assert values == [min(schur.ROUTE_DEPTH, cfg.build_depth)]
    verdict = {v.name: v for v in outcome.verdicts}["two_route_equality"]
    assert verdict.status == "pass"
    assert 0.0 < verdict.residual < 1e-13


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
def test_sampled_checks_make_one_transfer_pass(spy, geronimus6, name, points):
    passes = spy(lambda params, zs, n_max, keep_all: len(zs), opuc, "_run_transfer")
    status, _, _ = _SAMPLED_CHECKS[name](
        experiments.RunContext(_config(seed=1), geronimus6)
    )
    assert status == "pass"
    assert passes == [points]


def test_moment_hermitian_is_a_route_independent_of_the_moments(
    mixed_atom, monkeypatch
):
    # The atom at angle 2 makes the moments complex, so moments that come
    # back conjugated differ from the direct integrals over the quadrature
    # nodes; the check must not read those integrals from the moments
    check = dict(CHECKS["schur_identities"])["moment_hermitian"]
    assert np.max(np.abs(moments(mixed_atom.measure, 32).imag)) > 0.1
    status, _, _ = check(experiments.RunContext(_config(seed=1), mixed_atom))
    assert status == "pass"
    monkeypatch.setattr(
        experiments, "moments", lambda mu, k_max: np.conj(moments(mu, k_max))
    )
    status, residual, _ = check(experiments.RunContext(_config(seed=1), mixed_atom))
    assert status == "fail" and residual > 0.1


def test_cd_at_zero_identity_makes_one_transfer_pass(spy, geronimus6):
    # z = 0 and every certified angle in one table
    passes = spy(lambda params, zs, n_max, keep_all: len(zs), opuc, "_run_transfer")
    ctx = experiments.RunContext(_config(seed=1), geronimus6)
    status, _, _ = dict(CHECKS["summability"])["cd_at_zero_identity"](ctx)
    assert status == "pass"
    assert passes == [1 + len(ctx.certified)]


def test_mixed_mnt_run_makes_one_boundary_pass(spy):
    # every sandwich, at the certified angles and the swept points alike,
    # reads the one table over the points the run reads
    passes = spy(lambda params, zs, n_max, keep_all: (len(zs), n_max), opuc, "_run_transfer")
    cfg = _config(family=MIXED, n_list=[4, 16, 64, 256], test_points=[0.5, 2.5])
    outcome = run_experiment(cfg)
    assert not outcome.failed
    certified = outcome.report["family"]["certified_angles"]
    assert len(passes) == 1
    points, n_max = passes[0]
    assert n_max == 256
    # each angle's point and its grid node, once each; 0 and pi are nodes
    assert len(certified) + 2 < points <= 2 * (len(certified) + 2)


def test_ell2_run_makes_one_density_pass_and_no_chi_stream(spy):
    passes = spy(
        lambda params, zs, n_max, keep_all: (len(params), n_max, keep_all),
        opuc,
        "_run_transfer",
        families,
    )
    streams = spy(lambda params, xis, n_max: n_max, opuc, "_chi_rows")
    cfg = _config(
        family={"name": "ell2", "c": 0.5, "p": 1.0},
        grid_size=8192,
        n_list=[4, 16, 64],
        experiment="all",
    )
    outcome = run_experiment(cfg)
    assert not outcome.failed
    # the density oracle evaluates phi_K, K = len(params), keeping no table
    density = [p for p in passes if p[1] == p[0] and not p[2]]
    assert len(density) == 1
    assert streams == []
    # boundary table, dual Jost table, the dual_involution rebuild (two),
    # phi_star_zero_free, cd_three_route, cd_at_zero_identity and density
    assert len(passes) == 8


def test_ell2_run_makes_one_coefficient_pass_per_reader(spy):
    # the build, the Gram check and the CMV sums each run the coefficient
    # recursion once; the 2N grid of quadrature_refinement, which is also
    # radial_limit's 8192-node grid here, samples the phi_K coefficients
    # the build kept
    passes = spy(lambda params, n_max: n_max, opuc, "_coefficient_steps")
    spec = {"name": "ell2", "c": 0.5, "p": 1.0}
    cfg = _config(family=spec, n_list=[4, 16, 64], experiment="all")
    outcome = run_experiment(cfg)
    statuses = {v.name: v.status for v in outcome.verdicts}
    assert statuses["quadrature_refinement"] != "skip"
    assert statuses["radial_limit"] != "skip"
    depth = cfg.build_depth
    assert passes == [depth + families.TAIL_MARGIN, 16, max(cfg.n_list)]
    passes.clear()
    inst = build_family(spec, 4096, depth)
    fine = inst.measure_on(8192)
    assert passes == [depth + families.TAIL_MARGIN]
    built = build_family(spec, 8192, depth).measure
    assert fine.weight.tobytes() == built.weight.tobytes()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


@pytest.mark.parametrize(
    "family", ["leb", "bs_half", "geronimus6", "ell2_half", "mixed_atom"]
)
def test_boundary_table_readers_match_one_point_oracles_bitwise(family, request):
    # test points off the grid (0.5, 2.5) join the certified angles; the
    # one on node 37 and the certified 0 and pi are their own grid nodes,
    # so the table holds each of those once
    inst = request.getfixturevalue(family)
    mu = inst.measure
    on_node = 2.0 * np.pi * 37 / mu.grid_size
    n_list = (4, 16, 64)
    cfg = _config(n_list=list(n_list), test_points=[0.5, 2.5, on_node])
    ctx = experiments.RunContext(cfg, inst)
    columns, phi, _ = ctx.boundary_table()
    assert len(columns) == len(phi[0]) < 2 * len(ctx.read_angles)
    for angle in ctx.read_angles:
        raw = complex(np.exp(1j * angle))
        want = sandwich_table(mu, inst.params, raw, n_list, cfg.delta_grid_size)
        got = ctx.sandwich(angle)
        assert _bits([astuple(r) for r in got]) == _bits([astuple(r) for r in want])
        assert _bits(ctx.chi(angle)) == _bits(chi_table(inst.params, raw, max(n_list)))
        for mine, own in zip(
            ctx.jost(angle), jost_solutions(mu, inst.params, raw, max(n_list))
        ):
            assert _bits(mine.entries) == _bits(own.entries), (family, angle)
    # the density oracle reads every certified angle in one call
    certified = np.array(ctx.certified)
    one_call = ctx.instance.density_at(certified)
    assert _bits(one_call) == _bits([inst.density_at(t) for t in ctx.certified])


@pytest.mark.parametrize(
    "spec, grid_size, certified",
    [(MIXED, 4096, 3), ({"name": "ell2", "c": 0.5, "p": 1.0}, 8192, 2)],
    ids=["mixed", "ell2"],
)
def test_sandwich_rows_read_one_entropy_profile_batch(spy, spec, grid_size, certified):
    # the certified angles and two swept ones take their profile rows from
    # one entropy_profile call over their boundary points, and each angle's
    # rows, and its sandwich rows, are its one-angle call's bitwise
    cfg = _config(
        family=spec, grid_size=grid_size, n_list=[4, 16, 64], test_points=[0.5, 2.5]
    )
    inst = build_family(spec, grid_size, cfg.build_depth)
    mu = inst.measure
    ctx = experiments.RunContext(cfg, inst)
    assert len(ctx.certified) == certified
    calls = spy(
        lambda mu, xi0, *args: np.size(xi0),
        szego,
        "entropy_profile",
        experiments,
        asymptotics,
    )
    verdicts = experiments.suite_verdicts(ctx, "mnt")
    experiments.suite_tables(ctx, "mnt")
    assert all(v.status == "pass" for v in verdicts), verdicts
    assert calls == [certified + 2]
    for angle in ctx.read_angles:
        xi0 = ctx.boundary_point(angle)
        alone = szego.entropy_profile(mu, xi0, cfg.n_list, cfg.delta_grid_size)
        assert _bits([astuple(r) for r in ctx._profiles()[angle]]) == _bits(
            [astuple(r) for r in alone]
        )
        column = ctx._column(ctx.boundary_table()[1], angle)
        raw = complex(np.exp(1j * angle))
        want = sandwich_rows(mu, column, raw, cfg.n_list, cfg.delta_grid_size)
        got = ctx.sandwich(angle)
        assert _bits([astuple(r) for r in got]) == _bits([astuple(r) for r in want])


def test_a_swept_angle_whose_profile_raises_fails_only_its_table(monkeypatch):
    # _entropy_terms reads a negative entropy at every point on the ray of
    # the swept angle 2.5, so the run's one profile batch raises there; the
    # checks, which read the certified angles only, keep their verdicts, and
    # the mnt table fails with that angle's one-point error, as when each
    # angle took its own profile
    bad = 2.5
    cfg = _config(family=MIXED, n_list=[4, 16, 64], test_points=[0.5, bad])
    clean = run_experiment(cfg)
    assert not clean.failed
    terms = szego._entropy_terms

    def negative_on_the_ray(mu, zs):
        p_mu, values = terms(mu, zs)
        return p_mu, np.where(np.isclose(np.angle(zs), bad), -1.0, values)

    monkeypatch.setattr(szego, "_entropy_terms", negative_on_the_ray)
    outcome = run_experiment(cfg)
    inst = build_family(MIXED, cfg.grid_size, cfg.build_depth)
    xi0 = experiments.RunContext(cfg, inst).boundary_point(bad)
    with pytest.raises(EntropyNegative) as raised:
        szego.entropy_profile(inst.measure, xi0, cfg.n_list, cfg.delta_grid_size)
    assert [v for v in outcome.verdicts if v.name != "mnt_tables"] == list(
        clean.verdicts
    )
    table = outcome.verdicts[-1]
    assert (table.name, table.status) == ("mnt_tables", "fail")
    assert table.detail == f"EntropyNegative: {raised.value}"
    assert outcome.tables == {}


@pytest.mark.parametrize(
    "family, grid_size, route",
    [
        # 1.52 digits of loss over 16 parameters, moments within N/8
        (
            {"name": "ell2", "c": 0.5, "p": 1.0},
            32768,
            "coefficient space, digit loss 1.52",
        ),
        # 9.62 digits: past the gate
        (
            {"name": "geronimus", "a": 0.6},
            4096,
            "streamed over 4097 nodes, digit loss 9.62",
        ),
    ],
    ids=["ell2", "geronimus"],
)
def test_gram_check_takes_the_gated_route(spy, family, grid_size, route):
    cfg = _config(
        family=family, grid_size=grid_size, n_list=[16, 64, 256], experiment="all"
    )
    inst = build_family(cfg.family, grid_size, cfg.build_depth)
    ctx = experiments.RunContext(cfg, inst)
    nodes = len(inst.measure.quadrature()[0])
    sizes = spy(lambda params, zs, n_max: len(zs), opuc, "_transfer_steps")
    streamed = spy(lambda *args: len(args[1]), opuc, "gram_matrix")
    status, _, detail = dict(CHECKS["schur_identities"])["gram_orthonormality"](ctx)
    assert status == "pass"
    assert detail.endswith(route)
    if route.startswith("coefficient"):
        # no transfer pass at all, over the nodes or a chunk of them
        assert sizes == [] and streamed == []
    else:
        assert streamed == [nodes]


def test_gram_check_memory_is_linear_in_the_grid():
    # the check reads the moments on this config; on the streamed route
    # gram_matrix holds a chunk-sized table (test_opuc), so neither route
    # forms an order-by-node table
    grid_size = 32768
    cfg = _config(
        family={"name": "ell2", "c": 0.5, "p": 1.0},
        grid_size=grid_size,
        n_list=[16, 64, 256],
        experiment="all",
    )
    inst = build_family(cfg.family, grid_size, cfg.build_depth)
    ctx = experiments.RunContext(cfg, inst)
    check = dict(CHECKS["schur_identities"])["gram_orthonormality"]
    tracemalloc.start()
    try:
        status, _, _ = check(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == "pass"
    assert peak < 200 * grid_size, peak


_FFTS = ("fft", "ifft", "rfft", "irfft")


def _ell2_context(grid_size):
    """An ell2(0.5, 1) run context on ``grid_size`` nodes whose CMV sums
    run to order 256, with the weight's band record already taken."""
    cfg = _config(
        family={"name": "ell2", "c": 0.5, "p": 1.0},
        grid_size=grid_size,
        n_list=[16, 64, 256],
        experiment="summability",
    )
    inst = build_family(cfg.family, grid_size, cfg.build_depth)
    ctx = experiments.RunContext(cfg, inst)
    moments(ctx.mu, 0)
    return ctx


def test_cmv_sums_read_the_moments_without_an_fft(spy):
    ctx = _ell2_context(16384)
    calls = [spy(lambda *args, **kw: args, np.fft, name) for name in _FFTS]
    ones, cosines = ctx.cmv()
    assert calls == [[]] * len(_FFTS)
    assert len(ones) == len(cosines) == ctx.cmv_top + 1 == 257


def test_cmv_sums_memory_is_independent_of_the_grid():
    # the moment route forms no array of the grid's size: 16 bytes a node
    # would be 0.5 MB here
    ctx = _ell2_context(32768)
    tracemalloc.start()
    try:
        ctx.cmv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, peak


@pytest.mark.parametrize("family", ["bs_half", "mixed_atom", "geronimus6", "ell2_half"])
def test_scattering_table_matches_its_per_n_form_bitwise(family, request):
    inst = request.getfixturevalue(family)
    ctx = experiments.RunContext(
        _config(n_list=[4, 16, 64, 200], test_points=[2.5]), inst
    )
    # the rows as the table hands them to the CSV writer, before formatting
    for angle in (*inst.test_angles, 2.5):
        want = scattering_rows_per_n(
            inst.measure, inst.params, complex(np.exp(1j * angle)), ctx.n_list
        )
        assert experiments._scattering_table(ctx, angle) == want, (family, angle)


def test_dual_involution_solves_only_the_twice_negated_parameters(spy, bs_half):
    # the original solutions are a prefix of the run's own jost(angle)
    batches = spy(
        lambda params, nodes, phi, phis, d, f: (
            params is bs_half.params,
            len(nodes),
            len(phi) - 1,
        ),
        experiments,
        "jost_pairs",
    )
    d_passes = spy(lambda mu: mu.grid_size, experiments, "szego_boundary")
    f_passes = spy(lambda mu, nodes, xi: len(nodes), experiments, "_herglotz_at")
    ctx = experiments.RunContext(
        _config(experiment="scattering", n_list=[4, 16, 128]), bs_half
    )
    verdicts = experiments.suite_verdicts(ctx, "scattering")
    assert {v.name: v.status for v in verdicts}["dual_involution"] == "pass"
    # one batch over the certified angles to max(n_list) from the boundary
    # table, and the involution's own one-point batch of the twice-negated
    # parameters to min(64, max(n_list)); both read the run's D and F
    angles = len(bs_half.test_angles)
    assert batches == [(True, angles, 128), (False, 1, 64)]
    assert d_passes == [bs_half.measure.grid_size]
    assert f_passes == [angles]


def test_scattering_run_solves_its_angles_in_one_call(spy, bs_half):
    # test points off the certified set join the certified angles in one
    # batch on the boundary table; dual_involution makes the only batch of
    # its own, at one point
    points = [1.0, 2.5]
    batches = spy(lambda *args: len(args[1]), experiments, "jost_pairs")
    ctx = experiments.RunContext(
        _config(experiment="scattering", test_points=points), bs_half
    )
    assert not set(points) & set(bs_half.test_angles)
    experiments.suite_verdicts(ctx, "scattering")
    experiments.suite_tables(ctx, "scattering")
    assert batches == [len(bs_half.test_angles) + len(points), 1]
    for angle in (*bs_half.test_angles, *points):
        alone = jost_solutions(bs_half.measure, bs_half.params, np.exp(1j * angle), 16)
        for got, want in zip(ctx.jost(angle), alone):
            assert np.array_equal(got.entries, want.entries), angle
    # reading the solutions again solves nothing
    assert len(batches) == 2


@pytest.mark.parametrize("grid_size", [4096, 8192])
def test_all_run_takes_one_boundary_pass_per_grid(spy, grid_size):
    # radial_limit reads D on a grid of at least 8192 nodes, the Jost
    # solutions D and F on the run's own; with test points off the
    # certified angles, one pass per grid still serves every node, and F
    # is formed on the run's own grid only
    passes = spy(lambda mu: mu.grid_size, szego, "szego_boundary", experiments)
    f_passes = spy(
        lambda mu, nodes, xi: mu.grid_size, scattering, "_herglotz_at", experiments
    )
    config = _config(experiment="all", grid_size=grid_size, test_points=[1.0, 2.5])
    outcome = experiments.run_experiment(config)
    assert {v.status for v in outcome.verdicts} == {"pass"}
    assert sorted(passes) == sorted({grid_size, 8192})
    assert f_passes == [grid_size]


@pytest.mark.parametrize(
    "family, grid_size, n_list, grids",
    [
        ({"name": "ell2", "c": 0.5, "p": 1.0}, 32768, [16, 64, 256], [32768]),
        ({"name": "geronimus", "a": 0.6}, 4096, [4, 16, 64], [4096, 8192]),
    ],
    ids=["ell2", "geronimus"],
)
def test_all_run_holds_its_boundary_data(spy, family, grid_size, n_list, grids):
    # D and F at the read nodes live on the run (RunContext.outer_values
    # and herglotz_values): the radial limit (on at least 8192 nodes), the
    # Jost batch and dual_involution read one D pass per grid and one F
    # pass on the run's own grid, and no measure keeps a per-node record
    # of them
    passes = spy(lambda mu: mu.grid_size, szego, "szego_boundary", experiments)
    f_passes = spy(
        lambda mu, nodes, xi: mu.grid_size, scattering, "_herglotz_at", experiments
    )
    cfg = _config(family=family, grid_size=grid_size, n_list=n_list, experiment="all")
    inst = build_family(cfg.family, grid_size, cfg.build_depth)
    ctx = experiments.RunContext(cfg, inst)
    for suite in SUITE_NAMES:
        verdicts = experiments.suite_verdicts(ctx, suite)
        assert not any(v.failed for v in verdicts), verdicts
        experiments.suite_tables(ctx, suite)
    assert sorted(passes) == grids
    assert f_passes == [grid_size]
    measures = [v for v in ctx._memo.values() if isinstance(v, CircleMeasure)]
    records = [
        key
        for mu in (ctx.mu, *measures)
        for key, value in mu._spectrum_cache.items()
        if isinstance(value, dict)
    ]
    assert records == []


def test_jost_step_defects_run_once_per_solution(spy, bs_half):
    # with the default test points, solution_space_closure and the
    # scattering table read the same solutions, so their defects are shared;
    # both names, so that a residual taken through scattering counts too
    solutions = spy(
        lambda params, sol: sol, experiments, "jost_step_defects", scattering
    )
    ctx = experiments.RunContext(_config(experiment="scattering"), bs_half)
    experiments.suite_verdicts(ctx, "scattering")
    experiments.suite_tables(ctx, "scattering")
    assert len(solutions) == 2 * len(bs_half.test_angles)
    assert len({id(sol) for sol in solutions}) == len(solutions)
