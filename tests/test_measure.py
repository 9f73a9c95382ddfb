"""Measure container, Poisson extensions, moments, Fejer means."""

import math
import tracemalloc

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
    NonNormalizable,
    OutOfRange,
)
from opuclab.measure import (
    _BLOCK,
    _PAIR_ORDER,
    _WORK,
    CircleMeasure,
    _grid_means,
    _poisson_kernel,
    _schwarz_kernel,
    build_measure,
    fejer_mean,
    lebesgue,
    max_trusted_moment,
    moment,
    moments,
    poisson,
    poisson_log_weight,
    poisson_route,
    snap,
    weighted_poisson,
)
from opuclab import measure
from opuclab.asymptotics import sandwich_rows, summability_conditions
from opuclab.families import build_family
from opuclab.schur import (
    schur_eval,
    schur_parameters_from_measure,
    szego_formula_residuals,
)
from opuclab.szego import entropy, entropy_profile, szego_interior

from oracles import entropy_profile_per_delta, poisson_kernel_direct, poisson_means_mp


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


def _edge_points(grid_size: int, count: int = 8) -> list:
    """Seeded points with N(1 - |z|) near 8, which read every exponent of
    the closed form, and at |z| = 0.999."""
    rng = np.random.default_rng(22)
    radii = np.concatenate(
        [1.0 - rng.uniform(7.5, 8.5, count) / grid_size, np.full(count, 0.999)]
    )
    return list(radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * count)))


@pytest.mark.parametrize(
    "family", ["mixed_atom", "mixed_three_atoms", "geronimus6", "ell2_half"]
)
def test_array_points_match_one_point_calls_bitwise(family, request):
    # ell2's bands are wider than N/8: alone, the points of _POINTS read
    # the cached band prefixes, while a batch with the edge points reads
    # the bands of a transient FFT
    mu = request.getfixturevalue(family).measure
    points = _POINTS + _edge_points(mu.grid_size)
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
        # entropy refuses points the grid does not resolve; its two means
        # are poisson's and poisson_log_weight's
        at = _POINTS if extend is entropy else points
        batch = extend(mu, np.array(at))
        single = np.array([extend(mu, z) for z in at])
        assert batch.shape == (len(at),)
        assert np.array_equal(batch, single)
        assert isinstance(extend(mu, _POINTS[1]), scalar)


def _synthetic_points(grid_size: int, count: int) -> list:
    """Seeded points of reach from a few terms to all N, and the real-axis
    points at N(1 - |z|) = 8."""
    rng = np.random.default_rng(23)
    edge = 1.0 - 8.0 / grid_size
    radii = rng.uniform(0.02, edge, count)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return list(radii * np.exp(1j * angles)) + [edge, -edge, 0.3]


@pytest.mark.parametrize("kernel", [_poisson_kernel, _schwarz_kernel])
def test_grid_means_batch_matches_one_point_calls_over_every_tail_width(kernel):
    # Bands of K = 1..65 coefficients put the runs 0..K-1 and N-K+1..N-1,
    # each padded to an even length, in blocks of every even width from 2
    # to 64, and short reaches cut blocks; one wide band spans several
    # block widths and chunks of points.  A lone point's dots and complex
    # products must round as a batch's do.
    mu = lebesgue(4096)
    rng = np.random.default_rng(24)
    rows = rng.standard_normal((2, 1100)) + 1j * rng.standard_normal((2, 1100))
    rows[:, 0] = rows[:, 0].real
    few, many = _synthetic_points(mu.grid_size, 9), _synthetic_points(mu.grid_size, 37)
    cases = [([rows[0, :k]], few) for k in range(1, 66, 2)]
    cases += [([rows[0, :k], rows[1, : k // 2 + 1]], few) for k in range(2, 66, 2)]
    cases.append(([rows[0], rows[1, :700]], many))
    for bands, points in cases:
        batch = _grid_means(mu, points, bands, kernel)
        single = np.hstack([_grid_means(mu, [z], bands, kernel) for z in points])
        assert np.array_equal(batch, single), len(bands[0])


@pytest.mark.parametrize("kernel", [_poisson_kernel, _schwarz_kernel])
def test_grid_means_points_are_independent_of_their_batch(kernel, spy):
    # 40 points on a full-band measure: 32 that read past 1000 terms, half
    # on the ray at angle pi and half on rays of their own, then 8 that
    # stop inside the block of exponents 256..511.  Sorted by reach, the
    # batch fills two chunks of _WORK // _BLOCK = 32 points whose power
    # tables are 512 and 256 wide.
    mu = build_family(_GERONIMUS, 4096, 33).measure
    grid_size = mu.grid_size
    rng = np.random.default_rng(36)
    long_radii = 1.0 - rng.uniform(8.0, 160.0, 32) / grid_size
    angles = np.concatenate([np.full(16, np.pi), rng.uniform(0.0, 2.0 * np.pi, 24)])
    radii = np.concatenate([long_radii, rng.uniform(0.88, 0.91, 8)])
    points = list(radii * np.exp(1j * angles))
    bands = ["weight", "log_weight"]
    single = np.hstack([_grid_means(mu, [z], bands, kernel) for z in points])
    widths = spy(lambda z, width: (len(z), width), measure, "_powers")
    orders = [np.arange(40), np.arange(40)[::-1]]
    orders += [rng.permutation(40) for _ in range(3)]
    for order in orders:
        batch = _grid_means(mu, [points[i] for i in order], bands, kernel)
        assert np.array_equal(batch, single[:, order])
    assert _WORK // _BLOCK == 32
    assert widths == [(32, 512), (8, 256)] * len(orders)
    # the same points beside other companions: the second chunk now holds
    # points that read every exponent
    radii = 1.0 - rng.uniform(8.0, 160.0, 20) / grid_size
    others = list(radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20)))
    mixed = _grid_means(mu, others + points[::2], bands, kernel)
    assert np.array_equal(mixed[:, 20:], single[:, ::2])


def test_pair_order_alternates_parity_along_every_power_of_two_stride():
    # a dot kernel's SIMD lane takes every 2^s-th term of a block; along a
    # real-axis ray the sign of c_k z^k follows the parity of k
    assert sorted(_PAIR_ORDER) == list(range(_BLOCK))
    for stride in 2 ** np.arange(9):
        for lane in range(stride):
            parity = _PAIR_ORDER[lane::stride] % 2
            runs = np.diff(np.flatnonzero(np.diff(np.r_[-1, parity, -1])))
            assert runs.max() <= 2, (stride, lane)


def test_array_points_are_checked_one_by_one(bs_half):
    with pytest.raises(BoundaryPoint):
        poisson(bs_half.measure, np.array([0.2, 1.0]))
    with pytest.raises(OutOfRange):
        poisson(bs_half.measure, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "z", [complex("nan"), complex(0.1, float("nan")), complex("inf")]
)
@pytest.mark.parametrize(
    "extend", [poisson, poisson_log_weight, entropy, szego_interior]
)
def test_non_finite_interior_points_are_refused(bs_half, extend, z):
    # a NaN passes the boundary distance test, abs(nan) >= 1 being False
    with pytest.raises(OutOfRange, match="not finite"):
        extend(bs_half.measure, z)
    with pytest.raises(OutOfRange, match="not finite"):
        extend(bs_half.measure, np.array([0.2, z]))


@pytest.mark.parametrize(
    "xi0", [complex("nan"), complex(1.0, float("nan")), complex("inf")]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda mu, xi0: fejer_mean(mu, xi0, 4),
        lambda mu, xi0: entropy_profile(mu, xi0, [4]),
        lambda mu, xi0: sandwich_rows(mu, np.ones(4, dtype=complex), xi0, [4]),
        lambda mu, xi0: summability_conditions(
            mu, np.ones(5, dtype=complex), xi0, [4]
        ),
    ],
    ids=["fejer_mean", "entropy_profile", "sandwich_rows", "summability_conditions"],
)
def test_non_finite_boundary_points_are_refused(bs_half, call, xi0):
    # a NaN passes the unimodularity test, abs(abs(nan) - 1) > tol being
    # False; the refusal names the boundary point, not a later interior one
    with pytest.raises(OutOfRange, match="boundary point xi0 = .* is not finite"):
        call(bs_half.measure, xi0)


@pytest.mark.parametrize("size", [0, -1, 1.5, float("nan"), True])
@pytest.mark.parametrize(
    "build",
    [
        lebesgue,
        lambda size: CircleMeasure(size, []),
        lambda size: build_family({"name": "lebesgue"}, size, 33),
    ],
    ids=["lebesgue", "CircleMeasure", "build_family"],
)
def test_grid_sizes_that_are_not_positive_integers_are_refused(build, size):
    # before any array is sampled: 0 used to warn "Mean of empty slice",
    # -1 and 1.5 to raise numpy's ValueError and TypeError
    with pytest.raises(OutOfRange, match="grid_size"):
        build(size)


@pytest.mark.parametrize("depth", [-1, 1.5, float("nan"), True])
def test_build_depths_that_are_not_integers_are_refused(depth):
    with pytest.raises(OutOfRange, match="build depth"):
        build_family({"name": "lebesgue"}, 512, depth)


@pytest.mark.parametrize("size", [1, 2.5, float("nan"), True])
def test_delta_grid_sizes_below_two_or_not_integers_are_refused(bs_half, size):
    with pytest.raises(OutOfRange, match="delta_grid_size"):
        entropy_profile(bs_half.measure, 1.0, [4], size)


@pytest.mark.parametrize("order", [1.5, float("nan"), "2", True])
@pytest.mark.parametrize(
    "call",
    [
        lambda mu, n: moment(mu, n),
        lambda mu, n: moments(mu, n),
        lambda mu, n: fejer_mean(mu, 1.0, n),
        lambda mu, n: schur_parameters_from_measure(mu, n),
        lambda mu, n: entropy_profile(mu, 1.0, [4, n]),
        lambda mu, n: summability_conditions(mu, np.ones(8, dtype=complex), 1.0, [n]),
    ],
    ids=[
        "moment",
        "moments",
        "fejer_mean",
        "schur_parameters_from_measure",
        "entropy_profile",
        "summability_conditions",
    ],
)
def test_non_integer_orders_are_refused(bs_half, call, order):
    with pytest.raises(OutOfRange, match="not an integer"):
        call(bs_half.measure, order)


def test_weighted_poisson_guards(mixed_atom):
    mu = mixed_atom.measure
    with pytest.raises(GridMismatch):
        weighted_poisson(mu, np.ones(7), 0.1)
    with pytest.raises(NegativeInput):
        weighted_poisson(mu, -np.ones(mu.grid_size), 0.1)
    with pytest.raises(GridMismatch):
        # atom values required when the measure has atoms
        weighted_poisson(mu, np.ones(mu.grid_size), 0.1)


def _worst(values, reference):
    return np.max(np.abs(values - reference) / np.abs(reference))


def test_spectral_route_sums_the_quadrature_to_roundoff():
    # At N(1 - |z|) = 8, the least-resolved points the entropy profile
    # uses, against a 40-digit sum of the same quadrature: the closed form
    # keeps 1e-14, where a kernel summed over the nodes loses log2(N/8)
    # bits in 1 - conj(xi) z.
    mu = build_family({"name": "bernstein_szego", "r": 0.3}, 16384, 8).measure
    grid_size = mu.grid_size
    zs = [complex((1.0 - 8.0 / grid_size) * np.exp(1j * a)) for a in (3.0, 5.5)]
    exact = np.array(poisson_means_mp(mu, zs))
    p_w, p_log, outer = exact[:, 0].real, exact[:, 1].real, np.exp(0.5 * exact[:, 2])
    points = np.array(zs)
    assert _worst(poisson(mu, points), p_w) < 1e-14
    assert _worst(poisson_log_weight(mu, points), p_log) < 1e-14
    assert _worst(szego_interior(mu, points), outer) < 1e-14


_ELL2 = {"name": "ell2", "c": 0.5, "p": 1.0}
_GERONIMUS = {"name": "geronimus", "a": 0.6}


@pytest.mark.parametrize(
    "spec, angles",
    [
        pytest.param(_ELL2, (1.0, 3.0), id="spec0"),
        pytest.param(_GERONIMUS, (1.0, 3.0), id="spec1"),
        pytest.param(_ELL2, (0.0, np.pi), id="ell2-real-axis"),
        pytest.param(_GERONIMUS, (0.0, np.pi), id="geronimus-real-axis"),
    ],
)
def test_full_band_means_sum_the_quadrature_to_roundoff(spec, angles):
    # Both bands are the full N/2 + 1, at N(1 - |z|) = 8 and at |z| = 0.99,
    # against the 40-digit grid sum (atoms left out, so P(w) is
    # weighted_poisson with zero atom values).  geronimus's P(w) is bounded
    # in absolute terms: over its gap w sits at the arc floor and the grid
    # part of P(w) is about 1e-4, while the DFT of w carries errors of eps
    # times max w in every coefficient; the atom term dominates P(mu) there.
    # Angles 0 and pi are the real-axis rays the entropy profiles read.
    mu = build_family(spec, 4096, 33).measure
    grid_size = mu.grid_size
    full = grid_size // 2 + 1
    assert poisson_route(mu) == f"band {full}/{full} of N = {grid_size}"
    zs = [complex((1.0 - 8.0 / grid_size) * np.exp(1j * a)) for a in angles]
    zs.append(complex(0.99 * np.exp(1.0j)))
    exact = np.array(poisson_means_mp(mu, zs))
    p_w, p_log, outer = exact[:, 0].real, exact[:, 1].real, np.exp(0.5 * exact[:, 2])
    points = np.array(zs)
    grid_p_w = weighted_poisson(mu, np.ones(grid_size), points, np.zeros(len(mu.atoms)))
    if mu.atoms:
        assert np.max(np.abs(grid_p_w - p_w)) < 1e-15
    else:
        assert _worst(grid_p_w, p_w) < 1e-14
    assert _worst(poisson_log_weight(mu, points), p_log) < 1e-14
    assert _worst(szego_interior(mu, points), outer) < 1e-14


@pytest.mark.parametrize("grid_size", [3, 5, 9])
def test_lebesgue_grid_means_at_odd_grid_sizes(grid_size):
    # the grid mean of the constant row is Re (1 + z^N) / (1 - z^N)
    mu = lebesgue(grid_size)
    points = np.array([0.5, 0.3j, -0.7 + 0.2j])
    power = points**grid_size
    exact = ((1.0 + power) / (1.0 - power)).real
    assert np.max(np.abs(poisson(mu, points) - exact)) < 1e-15
    assert np.max(np.abs(poisson_log_weight(mu, points))) < 1e-15


@pytest.mark.parametrize("band", ["full", "narrow"])
def test_odd_grid_means_sum_the_quadrature_to_roundoff(band):
    # At odd N the one run of exponents k = 0..N - 1 is padded with a zero
    # term at k = N, and the two runs of a narrow band start the second at
    # an odd exponent.  A random weight has the full band (N + 1)/2; a
    # Bernstein-Szego weight a band of a few dozen.  The points at N(1 -
    # |z|) = 8 read every exponent of the full band.
    grid_size = 4099
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    if band == "full":
        rng = np.random.default_rng(7)
        weight = np.exp(0.5 * rng.standard_normal(grid_size))
    else:
        weight = 0.75 / np.abs(1.0 - 0.5 * np.exp(1j * theta)) ** 2
    mu = build_measure(weight, normalize=True)
    if band == "full":
        full = grid_size // 2 + 1
        assert poisson_route(mu) == f"band {full}/{full} of N = {grid_size}"
    zs = [complex((1.0 - 8.0 / grid_size) * np.exp(1j * a)) for a in (0.0, 3.0, np.pi)]
    zs.append(complex(0.99 * np.exp(1.0j)))
    exact = np.array(poisson_means_mp(mu, zs))
    points = np.array(zs)
    assert _worst(poisson(mu, points), exact[:, 0].real) < 1e-14
    assert np.max(np.abs(poisson_log_weight(mu, points) - exact[:, 1].real)) < 1e-14


def test_poisson_cache_keeps_no_node_sized_array(ell2_half):
    # the band records hold O(K) numbers, and none for a wide band: on a
    # 65536-node ell2 measure (full bands) the calls leave less than one
    # float row behind
    mu = ell2_half.measure_on(65536)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        poisson(mu, np.array(_POINTS))
        entropy_profile(mu, 1.0 + 0j, (4, 64), 32)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cached = [
        part
        for value in mu._spectrum_cache.values()
        for part in (value if isinstance(value, tuple) else (value,))
        if isinstance(part, np.ndarray)
    ]
    assert cached and all(part.size < mu.grid_size for part in cached)
    assert kept < 8 * mu.grid_size, kept


def test_each_measure_row_takes_one_fft(spy):
    # the build's moments, a Poisson mean and the Szego formula's grid mean
    # of log w all read the rows' band records: one FFT of w, one of log w
    read = lambda row, *args, **kwargs: np.array(row)  # noqa: E731
    ffts = spy(read, np.fft, "fft")
    rffts = spy(read, np.fft, "rfft")
    inst = build_family({"name": "bernstein_szego", "r": 0.5}, 512, 16)
    mu = inst.measure
    c = moments(mu, max_trusted_moment(mu.grid_size))
    poisson(mu, 0.3)
    szego_formula_residuals(mu, inst.params, [4, 16])
    rows = ffts + rffts
    assert ffts == [] and len(rows) == 2, len(rows)
    assert np.array_equal(rows[0], mu.weight)
    assert np.array_equal(rows[1], np.log(mu.weight))
    # past the band width the moments read 0, where every coefficient of
    # the full DFT lies under the noise floor eps * max w
    full = np.fft.fft(mu.weight)[: len(c)] / mu.grid_size
    width = measure._band_record(mu, "weight")[0]
    assert 0 < width < len(c) and np.all(c[width:] == 0.0)
    assert np.max(np.abs(c - full)) <= np.finfo(float).eps * np.max(mu.weight)


def test_short_reach_batches_read_the_cached_band_prefix(ell2_half, spy):
    # Both bands of the 65536-node ell2 measure are wider than N/8, and
    # their records keep c_0..c_{N/8}.  Points at |z| <= 0.9 read
    # about 400 terms, so after a first call they take no FFT and no
    # node-sized array; a point at |z| = 0.999 reads past the prefix and
    # takes a transient FFT.
    mu = ell2_half.measure_on(65536)
    assert poisson_route(mu) == "band 26671/22626 of N = 65536"
    points = np.array(_POINTS)
    poisson(mu, points)
    poisson_log_weight(mu, points)
    ffts = spy(lambda *args, **kwargs: None, np.fft, "rfft")
    tracemalloc.start()
    try:
        poisson(mu, points)
        poisson_log_weight(mu, points)
        szego_interior(mu, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ffts == []
    assert peak < 8 * mu.grid_size, peak
    poisson(mu, 0.999)
    assert len(ffts) == 1


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
    assert max_trusted_moment(mu.grid_size) == 32
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


def test_build_measure_validation():
    with pytest.raises(NegativeInput):
        build_measure([-1.0, 2.0])
    with pytest.raises(NegativeInput):
        build_measure(np.ones(8), atoms=[(0.5, -0.1)])
    with pytest.raises(InvalidAtoms):
        build_measure(np.ones(8), atoms=[(7.0, 0.1)])
    with pytest.raises(InvalidAtoms):
        build_measure(np.ones(8), atoms=[(1.0, 0.1), (1.0, 0.2)])


@pytest.mark.parametrize(
    "weight, atoms, error",
    [
        ([1.0, math.nan, 1.0, 1.0], (), NonNormalizable),
        ([-1.0, 3.0], (), NegativeInput),
        (np.full(4, 0.9), ((7.0, 0.1),), InvalidAtoms),
        (np.ones(4), ((1.0, 0.0),), NegativeInput),
        (np.full(4, 0.7), ((1.0, 0.1), (1.0, 0.2)), InvalidAtoms),
    ],
    ids=["nan-sample", "negative-sample", "angle-7", "zero-mass", "same-angle"],
)
def test_circle_measure_refuses_what_build_measure_refuses(weight, atoms, error):
    # the checks live in CircleMeasure, so constructing one directly, and
    # through build_measure with and without rescaling, refuses alike
    for make in (
        lambda: CircleMeasure(len(weight), np.asarray(weight), atoms),
        lambda: build_measure(weight, atoms),
        lambda: build_measure(weight, atoms, normalize=True),
    ):
        with pytest.raises(error):
            make()


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
    inst = build_family({"name": "bernstein_szego", "r": r}, 256, 4)
    z = mag * complex(np.exp(1j * arg))
    assert poisson(inst.measure, z) > 0.0
    # harmonic extension of log w never exceeds log of the Poisson average
    assert poisson_log_weight(inst.measure, z) <= np.log(
        poisson(inst.measure, z)
    ) + 1e-12


@pytest.mark.parametrize("grid_size", [256, 4096, 65536])
def test_snap_returns_each_node_and_its_boundary_point_bitwise(grid_size):
    points = lebesgue(grid_size).boundary_points
    snapped = [snap(grid_size, xi) for xi in points]
    assert [j for j, _ in snapped] == list(range(grid_size))
    nodes = np.array([node for _, node in snapped])
    assert nodes.tobytes() == points.tobytes()


def test_snap_wraps_below_two_pi_and_takes_negative_angles():
    n = 4096
    step = 2.0 * np.pi / n
    assert snap(n, np.exp(1j * (2.0 * np.pi - 1e-12))) == (0, 1.0 + 0.0j)
    assert snap(n, np.exp(-1e-13j))[0] == 0
    assert snap(n, np.exp(-1j * 3.2 * step))[0] == n - 3
    assert snap(n, np.exp(1j * (-np.pi + 0.4 * step)))[0] == n // 2
    j, node = snap(n, np.exp(-2.5j))
    assert node == lebesgue(n).boundary_points[j]
