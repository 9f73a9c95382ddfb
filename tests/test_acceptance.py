"""Acceptance gate: the eleven headline checks, one test each.

Every test prints a single summary line with the measured residuals so a
``pytest -s`` run reads as a checklist.  Tolerances here are frozen; if an
implementation change trips one, the change is wrong, not the bound.
"""

import math

import numpy as np

from opuclab.asymptotics import (
    cd_at_zero_residual,
    partial_sum_deviation,
    sandwich_rows,
    summability_conditions,
)
from opuclab.config import config_from_dict
from opuclab.experiments import run_experiment, write_outputs
from opuclab.lcg import Lcg
from opuclab.measure import moment, weighted_poisson
from opuclab.measure import _as_boundary
from opuclab.opuc import chi_grid_table, cmv_sums, eval_grid_table, monic_from_moments
from opuclab.scattering import jost_step_defects
from opuclab.schur import (
    entropy_products,
    iterate_noise_horizon,
    schur_eval,
    schur_parameters_from_measure,
    schur_sum_bound,
    szego_formula_residuals,
)
from opuclab.szego import entropy

from oracles import (
    averaged_jost_deviation,
    cd_kernel_routes,
    duality_identity_residual,
    gram_schmidt_verblunsky,
    jost_solutions,
    khrushchev_rhs,
    szego_recovery_deviation,
)


def _sandwich(inst, xi0, n_list):
    """Sandwich rows at xi0, reading phi from a one-column transfer table."""
    phi, _ = eval_grid_table(inst.params, np.array([_as_boundary(xi0)]), max(n_list))
    return sandwich_rows(inst.measure, phi[:, 0].copy(), xi0, n_list)


def _chi(params, xi0, n_max):
    """chi_0(xi0)..chi_{n_max}(xi0) from a one-column transfer table."""
    xi = np.array([_as_boundary(xi0)])
    return chi_grid_table(*eval_grid_table(params, xi, n_max), xi)[:, 0].copy()


def _both_routes(mu, depth):
    cascade = schur_parameters_from_measure(mu, depth).values
    moments = np.array([moment(mu, k) for k in range(depth + 1)])
    levinson = monic_from_moments(moments, depth).params.values
    return cascade, levinson


def test_criterion_01_closed_form_parameters(bs_half, all_families):
    cascade, levinson = _both_routes(bs_half.measure, 65)
    for label, values in (("cascade", cascade), ("levinson", levinson)):
        assert abs(values[0] - 0.5) <= 1e-10, label
        assert np.max(np.abs(values[1:65])) <= 1e-8, label

    oracle = gram_schmidt_verblunsky(bs_half.measure, 16)
    assert np.max(np.abs(oracle - cascade[:16])) <= 1e-8
    assert np.max(np.abs(oracle - levinson[:16])) <= 1e-8

    worst = 0.0
    for inst in all_families:
        a, b = _both_routes(inst.measure, 64)
        worst = max(worst, float(np.max(np.abs(a - b))))
        assert np.max(np.abs(a - b)) <= 1e-8, inst.name
    print(f"criterion 01 PASS  route agreement worst {worst:.3g}")


def test_criterion_02_szego_formula(leb, bs_half, ell2_half):
    for inst in (leb, bs_half):
        residuals = szego_formula_residuals(inst.measure, inst.params, (1, 16, 64))
        for n, res in zip((1, 16, 64), residuals):
            assert res <= 1e-10, (inst.name, n)
    trend = szego_formula_residuals(ell2_half.measure, ell2_half.params, (16, 64, 256))
    assert all(b < a for a, b in zip(trend, trend[1:])), trend
    print(f"criterion 02 PASS  ell2 residual trend {trend}")


def test_criterion_03_entropy_identity(bs_half, all_families):
    mu, params = bs_half.measure, bs_half.params
    points = [0.0] + [
        m * np.exp(2j * np.pi * j / 8)
        for m in (0.3, 0.5, 0.8)
        for j in range(8)
    ]
    worst = 0.0
    for z in points:
        z = complex(z)
        ent = entropy(mu, z)
        # all iterates past the first vanish, so the partial product is
        # already exact at any depth; it still must stay inside the
        # pointwise-iteration noise horizon (amplification 1/|z| per step)
        depth = 64 if z == 0 else min(64, iterate_noise_horizon(z))
        (prod,) = entropy_products(params, z, schur_eval(mu, z), [depth])
        worst = max(worst, abs(ent - prod))
        assert abs(ent - prod) <= 1e-8, z

        # the partial-sum bound is saturated by this family: the first
        # iterate carries everything and all later ones vanish
        lhs, rhs = schur_sum_bound(
            params, z, schur_eval(mu, z), 8, entropy_value=ent
        )
        assert abs(lhs - rhs) <= 1e-10, z

    assert abs(entropy(mu, 0.5) - math.log(1.25)) <= 1e-8

    for inst in all_families:
        for z in (0.0, 0.3, 0.3j, -0.21 - 0.21j):
            z = complex(z)
            ent = entropy(inst.measure, z)
            lhs, rhs = schur_sum_bound(
                inst.params, z, schur_eval(inst.measure, z), 8,
                entropy_value=ent,
            )
            assert lhs <= rhs + 1e-10, (inst.name, z)
    print(f"criterion 03 PASS  worst identity gap {worst:.3g}")


def test_criterion_04_khrushchev_formula(all_families):
    # pointwise Schur iteration amplifies rounding by 1/|z| per step, so
    # the deep orders are probed at moduli whose noise horizon covers them
    cases = [(1, 0.2), (2, 0.3j), (4, -0.45), (8, 0.5), (8, 0.62j),
             (16, -0.68), (16, 0.9), (16, 0.6 + 0.6j)]
    worst = 0.0
    for n, z in cases:
        z = complex(z)
        assert iterate_noise_horizon(z) >= n
        for inst in all_families:
            mu, params = inst.measure, inst.params
            _, phis_grid = eval_grid_table(params, mu.boundary_points, n)
            _, phis_atoms = eval_grid_table(params, mu.atom_points, n)
            g_atoms = (np.abs(phis_atoms[n]) ** 2).tolist()
            lhs = weighted_poisson(
                mu, np.abs(phis_grid[n]) ** 2, z, g_atoms or None
            )
            rhs = khrushchev_rhs(params, z, schur_eval(mu, z), n)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-6, (inst.name, n, z)
    print(f"criterion 04 PASS  worst quadrature gap {worst:.3g}")


def test_criterion_05_cd_kernel_routes(geronimus6, ell2_half):
    rng = Lcg(11)
    worst = 0.0
    for inst in (geronimus6, ell2_half):
        pairs = 0
        while pairs < 64:
            xi = complex(np.exp(1j * rng.angle()))
            z = complex(np.exp(1j * rng.angle()))
            if abs(1.0 - np.conj(xi) * z) < 0.1:
                continue  # quotient forms degenerate on the diagonal
            pairs += 1
            n = 1 + rng.next_raw() % 32
            direct, quotient, laurent = cd_kernel_routes(inst.params, xi, z, n)
            rescaled = laurent / (xi * np.conj(z)) ** (n // 2)
            scale = max(abs(direct), 1.0)
            rel = max(
                abs(direct - quotient), abs(direct - rescaled)
            ) / scale
            worst = max(worst, rel)
            assert rel <= 1e-9, (inst.name, n, xi, z)
    print(f"criterion 05 PASS  worst relative gap {worst:.3g}")


def test_criterion_06_cesaro_sandwich(bs_half, all_families):
    rows = _sandwich(bs_half, 1.0, (4, 16, 64, 256))
    value = rows[-1].cesaro
    assert abs(value - 1.0 / 3.0) <= 5e-3
    for row in rows:
        exact = (1.0 + (row.n - 1) / 3.0) / row.n
        assert abs(row.cesaro - exact) <= 1e-10, row.n
        assert row.cesaro >= row.lower - 1e-12, row.n
        if row.hypothesis_met:
            assert row.cesaro <= row.upper + 1e-12, row.n

    for inst in all_families:
        xi0 = complex(np.exp(1j * inst.test_angles[0]))
        for row in _sandwich(inst, xi0, (4, 32, 128)):
            assert row.cesaro >= row.lower - 1e-12, (inst.name, row.n)
    print(f"criterion 06 PASS  cesaro(256) = {value:.6f}")


def test_criterion_07_strong_cesaro(leb, bs_half):
    drops = []
    for inst in (leb, bs_half):
        # c_0..c_255 of 1 and Re xi and chi_0(1)..chi_255(1), read by
        # prefix for each n
        ones, coeffs = cmv_sums(inst.measure, inst.params, 255)
        chi_vals = _chi(inst.params, 1.0, 255)
        devs = [
            partial_sum_deviation(coeffs[:n], chi_vals[:n], 1.0)
            for n in (32, 64, 128, 256)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:])), (inst.name, devs)
        assert devs[-1] <= devs[0] / 3.0, inst.name
        drops.append(devs[0] / devs[-1])

        # a constant has every partial sum equal to it; the deviation is
        # zero to the last double-precision digit of the quadrature
        const = partial_sum_deviation(ones, chi_vals, 1.0)
        assert const <= 1e-13, inst.name
    print(f"criterion 07 PASS  deviation drop factors {drops}")


def test_criterion_08_summability_constant(leb, bs_half, mixed_atom):
    constants = {}
    for inst in (leb, bs_half, mixed_atom):
        xi0 = complex(np.exp(1j * inst.test_angles[0]))
        ratios = [
            lhs / rhs_unit
            for lhs, rhs_unit in summability_conditions(
                inst.measure, _chi(inst.params, xi0, 256), xi0, (4, 16, 64, 256)
            )
        ]
        constants[inst.kind] = max(ratios)
        assert all(np.isfinite(ratios))
        # no universal constant is claimed; this is a per-family report
        # with a regression rail well above the measured ~1.3
        assert max(ratios) <= 2.0, (inst.name, ratios)
    print(f"criterion 08 PASS  reported constants {constants}")


def test_criterion_09_scattering(ell2_half):
    xi = complex(np.exp(1j * ell2_half.test_angles[1]))
    plus, minus = jost_solutions(ell2_half.measure, ell2_half.params, xi, 256)
    res = max(
        [
            0.0,
            *jost_step_defects(ell2_half.params, plus),
            *jost_step_defects(ell2_half.params, minus),
        ]
    )
    assert res <= 1e-8

    devs = [averaged_jost_deviation(plus, n) for n in (64, 128, 256)]
    assert all(b < a for a, b in zip(devs, devs[1:])), devs

    dual = duality_identity_residual(ell2_half.measure, ell2_half.params, 32)
    assert dual <= 1e-6
    print(
        f"criterion 09 PASS  recurrence {res:.3g}, duality {dual:.3g}, "
        f"deviations {devs}"
    )


def test_criterion_10_recovery(bs_half, geronimus6, ell2_half):
    worst = 0.0
    for inst in (bs_half, geronimus6, ell2_half):
        for xi in (1.0, np.exp(1.7j)):
            res = cd_at_zero_residual(inst.params, complex(xi), 32)
            worst = max(worst, res)
            assert res <= 1e-9, inst.name

    for n in (2, 8, 64):
        dev = szego_recovery_deviation(
            bs_half.measure, bs_half.params, 1.0, n
        )
        assert dev <= 1e-10, n

    xi = complex(np.exp(1j * ell2_half.test_angles[1]))
    trend = [
        szego_recovery_deviation(ell2_half.measure, ell2_half.params, xi, n)
        for n in (64, 128, 256)
    ]
    assert all(b < a for a, b in zip(trend, trend[1:])), trend
    print(f"criterion 10 PASS  worst kernel-at-zero residual {worst:.3g}")


def test_criterion_11_determinism(tmp_path):
    config = config_from_dict({
        "family": {"name": "bernstein_szego", "r": 0.5},
        "grid_size": 4096,
        "n_list": [4, 16],
        "experiment": "all",
        "seed": 9,
    })
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        write_outputs(run_experiment(config), out)
    csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert csvs
    for name in csvs:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name
    print(f"criterion 11 PASS  {len(csvs)} CSV files byte-identical")
