"""Outer function, entropy, and the boundary profile."""

import tracemalloc

import numpy as np
import pytest

from opuclab import szego
from opuclab.errors import OutOfRange
from opuclab.families import build_family
from opuclab.measure import lebesgue, poisson, poisson_log_weight
from opuclab.szego import (
    _entropy_terms,
    entropy,
    entropy_profile,
    szego_boundary,
    szego_interior,
)

from oracles import entropy_profile_per_delta


def test_outer_function_closed_form(bs_half):
    mu = bs_half.measure
    # D(z) = sqrt(1 - r^2)/(1 - r z); D(0) = sqrt(3)/2
    assert abs(szego_interior(mu, 0.0) - 0.8660254037844386) < 1e-10
    for z in (0.3, -0.4j, 0.6 + 0.2j):
        expected = np.sqrt(0.75) / (1.0 - 0.5 * z)
        assert abs(szego_interior(mu, z) - expected) < 1e-10


def test_outer_modulus_matches_log_weight_extension(mixed_atom):
    mu = mixed_atom.measure
    for z in (0.2, 0.5j, -0.6 + 0.3j):
        lhs = 2.0 * np.log(abs(szego_interior(mu, z)))
        assert abs(lhs - poisson_log_weight(mu, z)) < 1e-10


def test_boundary_modulus_is_weight(bs_half):
    mu = bs_half.measure
    boundary = szego_boundary(mu)
    assert np.max(np.abs(np.abs(boundary) ** 2 - mu.weight)) < 1e-8


def test_radial_limit_approaches_boundary(bs_half):
    # radius 0.999 needs N(1 - r) well past the grid's resolution band,
    # so evaluate on the same family's measure on a refined grid
    mu = bs_half.measure_on(8192)
    boundary = szego_boundary(mu)
    node = 0
    xi = 1.0 + 0j
    devs = [
        abs(szego_interior(mu, r * xi) - boundary[node])
        for r in (0.95, 0.99, 0.999)
    ]
    assert devs[-1] < 1e-2
    assert devs[0] >= devs[1] >= devs[2] - 1e-12


def test_entropy_vanishes_only_for_lebesgue(bs_half):
    mu = lebesgue(512)
    for z in (0.0, 0.4, 0.7j):
        assert abs(entropy(mu, z)) < 1e-12
    assert entropy(bs_half.measure, 0.0) > 0.1


def test_entropy_closed_form_values(bs_half):
    mu = bs_half.measure
    # K(mu, 0) = -log(1 - r^2) = log(4/3); K(mu, 1/2) = log(5/4)
    assert abs(entropy(mu, 0.0) - 0.2876820724517809) < 1e-10
    assert abs(entropy(mu, 0.5) - 0.22314355131420976) < 1e-10


def test_entropy_nonnegative_with_atoms(mixed_atom):
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert entropy(mixed_atom.measure, complex(z)) >= -1e-10


def test_jensen_gap_equals_entropy(geronimus6):
    mu = geronimus6.measure
    for z in (0.0, 0.3 - 0.2j):
        gap = np.log(poisson(mu, z)) - poisson_log_weight(mu, z)
        assert abs(gap - entropy(mu, z)) < 1e-12
        assert gap >= 0.0


def test_entropy_profile_rows(bs_half):
    profile = entropy_profile(bs_half.measure, 1.0 + 0j, (4, 16, 64), 64)
    assert [row.n for row in profile] == [4, 16, 64]
    for row in profile:
        assert row.k_n >= -1e-12
        assert row.p_n > 0.0
        assert row.f_n > 0.0
    # entropy at the shrinking points fades as the approach resolves the
    # smooth density
    assert profile[-1].k_n <= profile[0].k_n + 1e-12


def test_entropy_profile_needs_resolved_radii(bs_half):
    with pytest.raises(OutOfRange):
        entropy_profile(bs_half.measure, 1.0 + 0j, (100_000,), 64)


@pytest.mark.parametrize("family", ["bs_half", "mixed_atom", "geronimus6", "ell2_half"])
def test_entropy_profile_matches_per_delta_oracle(family, request):
    # The profile sums the grid quadrature in closed form, over narrow bands
    # (bs_half, mixed_atom) and full ones (geronimus6, ell2_half); the
    # oracle's plain kernel loses up to log2(N/8) bits in 1 - conj(xi) z at
    # resolved points.  So the two agree to N eps:
    # relative to P_n, and to max(1, K_n) for K_n, a difference of two
    # extensions of size about 1 or more.
    mu = request.getfixturevalue(family).measure
    tol = mu.grid_size * np.finfo(float).eps
    for angle in (0.0, 2.0, np.pi):
        xi0 = complex(np.exp(1j * angle))
        profile = entropy_profile(mu, xi0, (4, 16, 64, 256), 96)
        oracle = entropy_profile_per_delta(mu, xi0, (4, 16, 64, 256), 96)
        for row, (n, k_n, p_n, f_n) in zip(profile, oracle, strict=True):
            assert (row.n, row.f_n) == (n, f_n)
            assert abs(row.p_n - p_n) <= tol * p_n
            assert abs(row.k_n - k_n) <= tol * max(1.0, k_n)


@pytest.mark.parametrize(
    "family", ["bs_half", "mixed_atom", "mixed_three_atoms", "geronimus6"]
)
def test_entropy_profile_is_per_delta_entropy_terms_bitwise(family, request):
    # one batch over the deltas of every n changes no bit against one
    # _entropy_terms call per delta, over narrow bands (bs_half and the
    # mixed families, one atom or three) and the full one of geronimus6
    mu = request.getfixturevalue(family).measure

    def terms(z):
        p_mu, value = _entropy_terms(mu, [z])
        return float(p_mu[0]), float(value[0])

    for angle in (0.0, 2.0, np.pi):
        xi0 = complex(np.exp(1j * angle))
        profile = entropy_profile(mu, xi0, (4, 16, 64, 256), 96)
        rows = [(r.n, r.k_n, r.p_n, r.f_n) for r in profile]
        oracle = entropy_profile_per_delta(mu, xi0, (4, 16, 64, 256), 96, terms)
        assert rows == oracle


def test_entropy_profile_makes_one_poisson_pass(spy, mixed_three_atoms):
    # every row reads its slice of one batch of points over all n
    batches = spy(lambda mu, zs, *rest: len(zs), szego, "_poisson_means")
    profile = entropy_profile(mixed_three_atoms.measure, np.exp(2.5j), (4, 16, 64), 32)
    assert [row.n for row in profile] == [4, 16, 64]
    assert len(batches) == 1


def test_entropy_profile_memory_is_linear_in_the_grid():
    # one kernel per delta: a (delta x N) kernel matrix would take 67 MB
    mu = build_family({"name": "bernstein_szego", "r": 0.5}, 32768, 4).measure
    tracemalloc.start()
    try:
        entropy_profile(mu, 1.0 + 0j, (4, 64, 256), 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
