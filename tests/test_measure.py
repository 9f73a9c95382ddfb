"""Measure container, Poisson extensions, moments, Fejer means."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuclab.errors import (
    AliasRisk,
    BoundaryPoint,
    GridMismatch,
    InvalidAtoms,
    NegativeInput,
    OutOfRange,
)
from opuclab.measure import (
    build_measure,
    fejer_mean,
    from_json_dict,
    interval_ratio,
    lebesgue,
    max_trusted_moment,
    moment,
    poisson,
    poisson_log_weight,
    to_json_dict,
    weighted_poisson,
)
from opuclab.schur import schur_eval
from opuclab.szego import entropy, szego_interior

from oracles import poisson_kernel_direct


def test_lebesgue_poisson_is_one():
    mu = lebesgue(512)
    for z in (0.0, 0.3, 0.5j, -0.7 + 0.2j):
        assert abs(poisson(mu, z) - 1.0) < 1e-12


def test_poisson_closed_form_value(bs_half):
    # density (1-r^2)/|1-r*xi|^2 integrates against the kernel to
    # (1 - r^2 |z|^2)/|1 - r*z|^2; at r = 0.5, z = 0.3 that is 23/17
    value = poisson(bs_half.measure, 0.3)
    assert abs(value - 1.3529411764705883) < 1e-12


def test_poisson_rejects_boundary(bs_half):
    with pytest.raises(BoundaryPoint):
        poisson(bs_half.measure, 1.0 + 0j)


def test_poisson_atom_term_matches_kernel(mixed_atom):
    mu = mixed_atom.measure
    z = 0.4 - 0.3j
    grid_part = float(np.mean(mu.weight * poisson_kernel_direct_grid(mu, z)))
    atom_part = sum(
        mass * poisson_kernel_direct(complex(np.exp(1j * angle)), z)
        for angle, mass in mu.atoms
    )
    assert abs(poisson(mu, z) - (grid_part + atom_part)) < 1e-12


def poisson_kernel_direct_grid(mu, z):
    return np.array([poisson_kernel_direct(xi, z) for xi in mu.boundary_points])


def test_weighted_poisson_at_zero_is_integral():
    # g(xi) = |xi - 1|^2 against Lebesgue measure integrates to 2
    mu = lebesgue(1024)
    g = np.abs(mu.boundary_points - 1.0) ** 2
    assert abs(weighted_poisson(mu, g, 0.0) - 2.0) < 1e-12


def test_weighted_poisson_constant_reduces_to_poisson(mixed_atom):
    mu = mixed_atom.measure
    ones = np.ones(mu.grid_size)
    atom_ones = np.ones(len(mu.atoms))
    for z in (0.2, -0.5j, 0.6 + 0.3j):
        assert abs(
            weighted_poisson(mu, ones, z, atom_ones) - poisson(mu, z)
        ) < 1e-14


_POINTS = [0.0, 0.3, -0.5j, 0.6 + 0.3j, -0.2 - 0.85j, 0.9 * np.exp(2.1j)]


@pytest.mark.parametrize("family", ["mixed_atom", "geronimus6"])
def test_array_points_match_one_point_calls_bitwise(family, request):
    mu = request.getfixturevalue(family).measure
    g = 1.0 + np.cos(mu.angles) ** 2
    g_atoms = 1.0 + np.cos([a for a, _ in mu.atoms]) ** 2
    extensions = (
        (poisson, float),
        (poisson_log_weight, float),
        (entropy, float),
        (lambda mu, z: weighted_poisson(mu, g, z, g_atoms), float),
        (schur_eval, complex),
        (szego_interior, complex),
    )
    for extend, scalar in extensions:
        batch = extend(mu, np.array(_POINTS))
        single = np.array([extend(mu, z) for z in _POINTS])
        assert batch.shape == (len(_POINTS),)
        assert np.array_equal(batch, single)
        assert isinstance(extend(mu, _POINTS[1]), scalar)


def test_array_points_are_checked_one_by_one(bs_half):
    with pytest.raises(BoundaryPoint):
        poisson(bs_half.measure, np.array([0.2, 1.0]))
    with pytest.raises(OutOfRange):
        poisson(bs_half.measure, np.zeros((2, 2)))


def test_weighted_poisson_guards(mixed_atom):
    mu = mixed_atom.measure
    with pytest.raises(GridMismatch):
        weighted_poisson(mu, np.ones(7), 0.1)
    with pytest.raises(NegativeInput):
        weighted_poisson(mu, -np.ones(mu.grid_size), 0.1)
    with pytest.raises(GridMismatch):
        # atom values required when the measure has atoms
        weighted_poisson(mu, np.ones(mu.grid_size), 0.1)


def test_moments_of_bernstein_szego(bs_half):
    # Schur function is the constant 1/2, so c_k = (1/2)^k
    for k in range(8):
        assert abs(moment(bs_half.measure, k) - 0.5**k) < 1e-12


def test_moment_is_conjugate_of_direct_integral(mixed_atom):
    mu = mixed_atom.measure
    for k in (0, 1, 5, 17):
        direct = complex(np.mean(mu.weight * mu.boundary_points**k))
        direct += sum(
            mass * complex(np.exp(1j * k * angle)) for angle, mass in mu.atoms
        )
        assert abs(moment(mu, k) - np.conj(direct)) < 1e-12


def test_moment_guards():
    mu = lebesgue(256)
    assert max_trusted_moment(mu) == 32
    with pytest.raises(AliasRisk):
        moment(mu, 33)
    with pytest.raises(OutOfRange):
        moment(mu, -1)


def test_fejer_mean_approaches_density(bs_half):
    mu = bs_half.measure
    target = bs_half.density_at(0.0)  # equals 3 at xi = 1
    assert abs(target - 3.0) < 1e-12
    rel = abs(fejer_mean(mu, 1.0 + 0j, 256) - target) / target
    assert rel < 0.05


def test_fejer_mean_positive_small_orders(mixed_atom):
    mu = mixed_atom.measure
    for n in (1, 2, 3, 7):
        assert fejer_mean(mu, np.exp(0.7j), n) > 0.0


def test_interval_ratio_counts_atom_mass(mixed_atom):
    mu = mixed_atom.measure
    xi0 = complex(np.exp(2.0j))
    eps = 0.05
    expected = 0.2 / (2.0 * np.arcsin(eps / 2.0) / np.pi)
    assert abs(interval_ratio(mu, xi0, eps) - expected) < 1e-12
    # away from the atom nothing singular is caught
    assert interval_ratio(mu, 1.0 + 0j, eps) == 0.0


def test_json_roundtrip(mixed_atom):
    mu = mixed_atom.measure
    data = to_json_dict(mu)
    json.dumps(data)  # must be serializable as-is
    back = from_json_dict(data)
    assert back.grid_size == mu.grid_size
    assert np.max(np.abs(back.weight - mu.weight)) < 1e-15
    assert len(back.atoms) == len(mu.atoms)
    for (a1, m1), (a2, m2) in zip(back.atoms, mu.atoms):
        assert abs(a1 - a2) < 1e-15 and abs(m1 - m2) < 1e-15


def test_build_measure_validation():
    with pytest.raises(NegativeInput):
        build_measure([-1.0, 2.0])
    with pytest.raises(NegativeInput):
        build_measure(np.ones(8), atoms=[(0.5, -0.1)])
    with pytest.raises(InvalidAtoms):
        build_measure(np.ones(8), atoms=[(7.0, 0.1)])
    with pytest.raises(InvalidAtoms):
        build_measure(np.ones(8), atoms=[(1.0, 0.1), (1.0, 0.2)])


def test_build_measure_normalize_rescales():
    mu = build_measure(np.full(16, 2.0), atoms=[(1.0, 0.5)], normalize=True)
    assert abs(np.mean(mu.weight) + sum(m for _, m in mu.atoms) - 1.0) < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=0.9),
    # the grid trusts the kernels only up to aliasing |z|^N; at N = 256
    # keeping |z| <= 0.8 leaves that tail below 1e-24
    mag=st.floats(min_value=0.0, max_value=0.8),
    arg=st.floats(min_value=0.0, max_value=6.283),
)
def test_poisson_positive_on_random_inputs(r, mag, arg):
    from opuclab.families import build_family

    inst = build_family({"name": "bernstein_szego", "r": r}, 256, 4)
    z = mag * complex(np.exp(1j * arg))
    assert poisson(inst.measure, z) > 0.0
    # harmonic extension of log w never exceeds log of the Poisson average
    assert poisson_log_weight(inst.measure, z) <= np.log(
        poisson(inst.measure, z)
    ) + 1e-12
