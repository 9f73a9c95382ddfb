"""Cesaro rate bounds, CMV Bessel sums, and recovery deviations."""

import tracemalloc

import numpy as np
import pytest

from opuclab.asymptotics import (
    cd_at_zero_residual,
    cmv_coefficients,
    partial_sum_deviation,
    sandwich_rows,
    summability_conditions,
)
from opuclab import asymptotics, experiments, opuc
from opuclab.config import config_from_dict
from opuclab.errors import OutOfRange
from opuclab.families import build_family
from opuclab.measure import _as_boundary
from opuclab.opuc import chi_sums, chi_sums_fft, eval_grid_table
from oracles import (
    chi_table,
    cmv_coefficients_dense,
    cmv_coefficients_mp,
    sandwich_rows_per_n,
    sandwich_table,
    szego_recovery_deviation,
)


def _sandwich(mu, params, xi0, n_list, delta_grid_size=64):
    """``sandwich_rows`` on phi from a one-column transfer table at xi0."""
    phi, _ = eval_grid_table(params, np.array([_as_boundary(xi0)]), max(n_list))
    return sandwich_rows(mu, phi[:, 0].copy(), xi0, n_list, delta_grid_size)


def _cos_samples(mu):
    angles = 2.0 * np.pi * np.arange(mu.grid_size) / mu.grid_size
    grid = np.cos(angles).astype(complex)
    atoms = np.array([np.cos(a) for a, _ in mu.atoms], dtype=complex)
    return grid, atoms


def test_cesaro_exact_partial_bernstein_szego(bs_half):
    # a_0 = 1/2, a_n = 0 afterwards gives |phi_k(1)|^2 = 1/3 for k >= 1,
    # so the running mean is (1 + (n - 1)/3)/n exactly
    mu, params = bs_half.measure, bs_half.params
    for row in _sandwich(mu, params, 1.0, (1, 4, 16, 64, 256)):
        want = (1.0 + (row.n - 1) / 3.0) / row.n
        assert abs(row.cesaro - want) < 1e-10, row.n
    with pytest.raises(OutOfRange):
        _sandwich(mu, params, 1.0, [0])


def test_sandwich_rows_bound_the_mean(bs_half, leb):
    for inst in (bs_half, leb):
        for row in _sandwich(inst.measure, inst.params, 1.0, (4, 16, 64, 256)):
            assert row.cesaro >= row.lower - 1e-12, (inst.name, row.n)
            if row.hypothesis_met:
                assert row.cesaro <= row.upper + 1e-12, (inst.name, row.n)


def test_sandwich_lower_bound_every_family(all_families):
    # the lower rail 1/F_n needs no smallness hypothesis at all
    for inst in all_families:
        xi0 = complex(np.exp(1j * inst.test_angles[0]))
        for row in _sandwich(inst.measure, inst.params, xi0, (4, 32)):
            assert row.cesaro >= row.lower - 1e-12, inst.name
            assert abs(row.lower * row.f_n - 1.0) < 1e-12


def test_sandwich_target_is_reciprocal_density(bs_half):
    (row,) = _sandwich(bs_half.measure, bs_half.params, 1.0, [16])
    assert abs(row.target - 1.0 / 3.0) < 1e-12
    assert abs(row.cesaro - (1.0 + 15.0 / 3.0) / 16.0) < 1e-10


def test_strong_cesaro_constant_function_is_exact(leb, bs_half):
    for inst in (leb, bs_half):
        mu = inst.measure
        ones = np.ones(mu.grid_size, dtype=complex)
        atom_ones = np.ones(len(mu.atoms), dtype=complex)
        coeffs = cmv_coefficients(mu, inst.params, ones, 63, atom_ones)
        dev = partial_sum_deviation(coeffs, chi_table(inst.params, 1.0, 63), 1.0)
        assert dev < 1e-12, inst.name


def test_strong_cesaro_decreases_for_smooth_data(leb, bs_half):
    for inst in (leb, bs_half):
        mu = inst.measure
        grid, atoms = _cos_samples(mu)
        coeffs = cmv_coefficients(mu, inst.params, grid, 255, atoms)
        chi_vals = chi_table(inst.params, 1.0, 255)
        devs = [
            partial_sum_deviation(coeffs[:n], chi_vals[:n], 1.0)
            for n in (32, 64, 128, 256)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:])), (inst.name, devs)
        assert devs[-1] <= devs[0] / 3.0, inst.name


def test_cmv_bessel_inequality(mixed_atom):
    mu = mixed_atom.measure
    grid, atoms = _cos_samples(mu)
    coeffs = cmv_coefficients(mu, mixed_atom.params, grid, 128, atoms)
    angles = 2.0 * np.pi * np.arange(mu.grid_size) / mu.grid_size
    norm_sq = float(np.mean(mu.weight * np.cos(angles) ** 2))
    norm_sq += sum(m * np.cos(a) ** 2 for a, m in mu.atoms)
    assert float(np.sum(np.abs(coeffs) ** 2)) <= norm_sq + 1e-10
    # c_0 is the plain integral of f and c_1 pairs against phi_1
    want0 = float(np.mean(mu.weight * np.cos(angles))) + sum(
        m * np.cos(a) for a, m in mu.atoms
    )
    assert abs(coeffs[0] - want0) < 1e-12


@pytest.mark.parametrize("n_max", [64, 200])  # a shallow and a deep order
def test_streamed_cmv_coefficients_match_dense_table(
    bs_half, geronimus6, mixed_atom, n_max
):
    for inst in (bs_half, geronimus6, mixed_atom):
        mu = inst.measure
        grid, atoms = _cos_samples(mu)
        wave = np.exp(1j * mu.angles) * np.sin(3.0 * mu.angles)
        wave_atoms = np.array(
            [np.exp(1j * a) * np.sin(3.0 * a) for a, _ in mu.atoms]
        )
        stacked = np.stack([grid, wave])
        stacked_atoms = np.stack([atoms, wave_atoms])
        want = cmv_coefficients_dense(
            mu, inst.params, stacked, n_max, stacked_atoms
        )
        got = cmv_coefficients(mu, inst.params, stacked, n_max, stacked_atoms)
        assert got.shape == (2, n_max + 1)
        assert np.max(np.abs(got - want)) < 1e-13, inst.name
        single = cmv_coefficients(mu, inst.params, wave, n_max, wave_atoms)
        assert single.shape == (n_max + 1,)
        assert np.max(np.abs(single - want[1])) < 1e-13, inst.name
        # a function's coefficients do not depend on what it is stacked with
        assert np.array_equal(single, got[1]), inst.name


def test_deeper_passes_extend_shallower_ones_bitwise(geronimus6, mixed_atom):
    # RunContext.cmv() computes once at the deepest order and slices
    for inst in (geronimus6, mixed_atom):
        mu = inst.measure
        grid, atoms = _cos_samples(mu)
        deep = cmv_coefficients(mu, inst.params, grid, 200, atoms)
        shallow = cmv_coefficients(mu, inst.params, grid, 64, atoms)
        assert np.array_equal(deep[:65], shallow), inst.name
        for deep_tab, tab in zip(
            eval_grid_table(inst.params, mu.boundary_points, 200),
            eval_grid_table(inst.params, mu.boundary_points, 128),
        ):
            assert np.array_equal(deep_tab[:129], tab), inst.name


def test_cmv_coefficients_memory_is_linear_in_the_grid():
    # a table of every order over this grid takes about 800 MB
    inst = build_family({"name": "ell2", "c": 0.5, "p": 1.0}, 32768, 256)
    mu = inst.measure
    stacked = np.stack([np.ones(mu.grid_size), np.cos(mu.angles)])
    tracemalloc.start()
    try:
        cmv_coefficients(mu, inst.params, stacked, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def test_streamed_coefficient_pass_memory_is_linear_in_the_grid():
    # the route behind the digit-loss gate, on the grid and order above
    inst = build_family({"name": "ell2", "c": 0.5, "p": 1.0}, 32768, 256)
    mu = inst.measure
    stacked = np.stack([np.ones(mu.grid_size), np.cos(mu.angles)])
    tracemalloc.start()
    try:
        nodes, weights = mu.quadrature()
        chi_sums(inst.params, nodes, stacked * weights, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


# Grids small enough for the pure-Python oracle (about 0.2 s a case); ell2
# needs 56 nodes per parameter.  The route is the one cmv_coefficients
# takes: geronimus(0.6) loses 11.6 digits over these 32 parameters.
_ORACLE_CASES = [
    ({"name": "lebesgue"}, 128, 32, "fft"),
    ({"name": "bernstein_szego", "r": 0.5}, 128, 32, "fft"),
    ({"name": "geronimus", "a": 0.6}, 128, 32, "streamed"),
    ({"name": "ell2", "c": 0.5, "p": 1.0}, 1024, 8, "fft"),
    (
        {
            "name": "mixed",
            "base": {"name": "bernstein_szego", "r": 0.3},
            "atoms": [{"angle": 2.0, "mass": 0.2}],
        },
        128,
        32,
        "fft",
    ),
]


@pytest.mark.parametrize(
    "spec, grid_size, n_max, route",
    _ORACLE_CASES,
    ids=[case[0]["name"] for case in _ORACLE_CASES],
)
def test_coefficient_routes_match_a_40_digit_sum(spec, grid_size, n_max, route):
    inst = build_family(spec, grid_size, n_max)
    mu = inst.measure
    f = np.cos(mu.angles) + 1j * np.sin(3.0 * mu.angles)
    fa = np.array([np.cos(t) + 1j * np.sin(3.0 * t) for t, _ in mu.atoms])
    want = cmv_coefficients_mp(mu, inst.params, f, n_max, fa)
    nodes, weights = mu.quadrature()
    streamed = chi_sums(
        inst.params, nodes, np.concatenate([f, fa]) * weights, n_max
    )
    fft = chi_sums_fft(
        inst.params,
        f * (mu.weight / mu.grid_size),
        mu.atom_points,
        fa * mu.atom_masses,
        n_max,
    )
    assert np.max(np.abs(streamed - want)) < 1e-14, inst.name
    got = cmv_coefficients(mu, inst.params, f, n_max, fa)
    if route == "fft":
        assert np.max(np.abs(fft - want)) < 1e-14, inst.name
        assert np.array_equal(got, fft), inst.name
    else:
        # the gate is needed: phi_k's coefficients cancel where its values
        # do not, so the coefficient route loses what the parameters lose
        assert np.max(np.abs(fft - want)) > 1e-13, inst.name
        assert np.array_equal(got, streamed), inst.name


def test_summability_condition_pair(bs_half):
    chi_vals = chi_table(bs_half.params, 1.0, 256)
    for n in (8, 64, 256):
        ((lhs, rhs_unit),) = summability_conditions(bs_half.measure, chi_vals, 1.0, [n])
        assert lhs > 0.0 and rhs_unit > 0.0
        assert lhs / rhs_unit < 10.0, n


def test_szego_recovery_deviation_bernstein_szego(bs_half):
    # phi_k* D is exactly 1 from k = 1 on once the single parameter passes
    for n in (2, 8, 64):
        dev = szego_recovery_deviation(
            bs_half.measure, bs_half.params, 1.0, n
        )
        assert dev < 1e-10, n


def test_szego_recovery_deviation_decreases(ell2_half):
    xi = complex(np.exp(1j * ell2_half.test_angles[1]))
    devs = [
        szego_recovery_deviation(ell2_half.measure, ell2_half.params, xi, n)
        for n in (32, 64, 128, 256)
    ]
    assert all(b < a for a, b in zip(devs, devs[1:])), devs


def test_cd_at_zero_residual(bs_half, geronimus6):
    for inst in (bs_half, geronimus6):
        for xi in (1.0, np.exp(1.7j)):
            assert cd_at_zero_residual(inst.params, complex(xi), 24) < 1e-9


@pytest.mark.parametrize("family", ["mixed_atom", "geronimus6", "ell2_half"])
def test_cd_at_zero_residual_batch_is_its_one_point_calls_bitwise(family, request):
    params = request.getfixturevalue(family).params
    xis = np.exp(1j * np.array([0.0, 1.7, 2.0, 4.4]))
    for n in (1, 24, 64):
        batch = cd_at_zero_residual(params, xis, n)
        singles = [cd_at_zero_residual(params, complex(xi), n) for xi in xis]
        assert np.array(batch).tobytes() == np.array(singles).tobytes()


@pytest.mark.parametrize("family", ["bs_half", "mixed_atom", "geronimus6", "ell2_half"])
def test_sandwich_table_matches_its_per_n_form_bitwise(family, request):
    # the run's rows, read off its one boundary table, and the one-point
    # reference both equal one profile and one transfer pass per n
    inst = request.getfixturevalue(family)
    mu = inst.measure
    n_list = (4, 16, 64, 256)
    ctx = experiments.RunContext(
        config_from_dict({
            "family": {"name": "bernstein_szego", "r": 0.5},
            "n_list": list(n_list),
            "experiment": "mnt",
            "test_points": [2.5],
            "delta_grid_size": 48,
        }),
        inst,
    )
    for angle in ctx.read_angles:
        xi0 = complex(np.exp(1j * angle))
        want = sandwich_rows_per_n(mu, inst.params, xi0, n_list, 48)
        assert list(ctx.sandwich(angle)) == want, (family, angle)
        assert list(sandwich_table(mu, inst.params, xi0, n_list, 48)) == want
        phi = ctx._column(ctx.boundary_table()[1], angle)
        assert sandwich_rows(mu, phi, xi0, [16], 48) == (want[1],)


def test_sandwich_rows_take_one_profile_and_no_transfer_pass(spy, bs_half):
    # the Cesaro means read the phi column they are handed
    phi, _ = eval_grid_table(bs_half.params, np.array([1.0 + 0j]), 256)
    profiles = spy(lambda *args: args, asymptotics, "entropy_profile")
    passes = spy(lambda params, zs, n_max, keep_all: len(zs), opuc, "_run_transfer")
    rows = sandwich_rows(bs_half.measure, phi[:, 0].copy(), 1.0, (4, 16, 64, 256))
    assert len(rows) == 4
    assert (len(profiles), len(passes)) == (1, 0)
