"""Builtin family builders: parameters, densities, gates, refinements."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuclab import families, measure, schur
from opuclab.errors import FamilyValidationError, OutOfRange
from opuclab.families import (
    FAMILY_DESCRIPTIONS,
    PARAMETER_FIRST,
    SERIES_CASCADE,
    VALUE_RECURSION,
    build_family,
    conditioning_horizon,
)
from opuclab.measure import grid_angles, max_trusted_moment, moments
from opuclab.opuc import N_MAX, verblunsky_from_measure
from opuclab.schur import (
    _SAFE_DIGIT_LOSS,
    ROUTE_DEPTH,
    FloatBlock,
    SchurParameters,
    _cascade,
    schur_parameters_from_measure,
)
from oracles import geronimus_density_mp


def test_lebesgue_parameters_vanish(leb):
    # extracted from the grid, so zero only at machine precision
    assert np.max(np.abs(leb.params.values)) < 1e-12
    assert leb.density_at(1.3) == 1.0


def test_bernstein_szego_parameters(bs_half):
    assert abs(bs_half.params[0] - 0.5) < 1e-12
    assert np.max(np.abs(bs_half.params.values[1:])) < 1e-12
    # density closed form at the two certified angles
    for angle in bs_half.test_angles:
        xi = complex(np.exp(1j * angle))
        expected = 0.75 / abs(1.0 - 0.5 * xi) ** 2
        assert abs(bs_half.density_at(angle) - expected) < 1e-12


def test_geronimus_parameters_constant(geronimus6):
    # extraction accuracy is certified inside the builder only up to the
    # conditioning horizon and the grid's edge-singularity aliasing level
    depth = min(
        conditioning_horizon(geronimus6.params, geronimus6.build_depth), 16
    )
    assert depth >= 4
    drift_tol = 50.0 * geronimus6.measure.grid_size ** -1.5
    early = geronimus6.params.values[:depth]
    assert np.max(np.abs(early - 0.6)) < drift_tol
    assert np.max(np.abs(geronimus6.params.values)) < 1.0
    assert geronimus6.measure.atoms  # arc family carries its point mass
    angle, mass = geronimus6.measure.atoms[0]
    assert angle == 0.0
    assert abs(mass - 2 * 0.6 / 1.6) < 1e-2  # floor shaves a little mass


def test_ell2_parameters_decay(ell2_half):
    values = ell2_half.params.values
    expected = 0.5 / (np.arange(len(values)) + 1.0)
    assert np.max(np.abs(values - expected)) < 1e-15
    assert ell2_half.build_depth == 256
    assert len(values) > 256  # truncation tail is stored beyond the depth
    assert ell2_half.route == PARAMETER_FIRST


def test_mixed_family_carries_atom(mixed_atom):
    mu = mixed_atom.measure
    assert len(mu.atoms) == 1
    angle, mass = mu.atoms[0]
    assert abs(angle - 2.0) < 1e-15
    assert abs(mass - 0.2) < 1e-15
    assert abs(np.mean(mu.weight) - 0.8) < 1e-12


def test_density_at_matches_grid(all_families):
    # the stored grid weight is the ideal density up to one global
    # renormalization constant (quadrature mass of the sampled closed
    # form is not exactly 1), so the ratio must be flat and near 1
    for inst in all_families:
        mu = inst.measure
        ratios = []
        for angle in inst.test_angles:
            node = int(round(angle * mu.grid_size / (2 * np.pi))) % mu.grid_size
            node_angle = 2 * np.pi * node / mu.grid_size
            ratios.append(mu.weight[node] / inst.density_at(node_angle))
        assert abs(ratios[0] - 1.0) < 1e-5, inst.name
        assert max(ratios) - min(ratios) < 1e-12, inst.name


@pytest.mark.parametrize("refined", ["double", "radial"])
def test_measure_on_matches_a_fresh_build(all_families, refined):
    # refinement checks sample only the measure; it must be bitwise the
    # measure a full build on that grid gives, at the build depth (ell2's
    # truncation order, not its stored parameter count with the tail)
    for inst in all_families:
        n = inst.measure.grid_size
        grid = 2 * n if refined == "double" else max(8192, n)
        fine = inst.measure_on(grid)
        built = build_family(inst.spec, grid, inst.build_depth).measure
        assert np.array_equal(fine.weight, built.weight), inst.name
        assert fine.atoms == built.atoms, inst.name


@pytest.mark.parametrize(
    "a, grid_size",
    [(a, n) for a in (0.3, 0.6, 0.9) for n in (4096, 8192, 16384, 32768)],
)
def test_geronimus_builds_on_every_grid(a, grid_size):
    build_family({"name": "geronimus", "a": a}, grid_size, 17)


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "lebesgue"},
        {"name": "bernstein_szego", "r": 0.5},
        {"name": "geronimus", "a": 0.6},
        {"name": "ell2", "c": 0.5, "p": 1.0},
        {
            "name": "mixed",
            "base": {"name": "bernstein_szego", "r": 0.3},
            "atoms": [{"angle": 2.0, "mass": 0.2}],
        },
    ],
    ids=lambda spec: spec["name"],
)
def test_every_family_builds_at_depth_zero(spec):
    # a depth-0 build checks no parameter against its closed form
    inst = build_family(spec, 4096, 0)
    assert inst.measure.grid_size == 4096


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_geronimus_density_matches_mpmath(a):
    # the one array pass over the grid against the closed form at 40 digits
    grid_size = 4096
    got = families.geronimus_density(a, grid_angles(grid_size))
    want = np.array([geronimus_density_mp(a, j, grid_size) for j in range(grid_size)])
    assert np.max(np.abs(got - want)) < 5e-11


def test_mixed_samples_its_base_once(monkeypatch):
    grids = []
    base = families.FAMILIES["bernstein_szego"]

    def counted(grid_size, depth, **args):
        grids.append(grid_size)
        return base.measure(grid_size, depth, **args)

    monkeypatch.setitem(
        families.FAMILIES, "bernstein_szego", replace(base, measure=counted)
    )
    spec = {
        "name": "mixed",
        "base": {"name": "bernstein_szego", "r": 0.3},
        "atoms": [{"angle": 2.0, "mass": 0.2}],
    }
    inst = build_family(spec, 1024, 16)
    assert grids == [1024]
    assert inst.name == "mixed(bernstein_szego(r=0.3);atoms=[(2,0.2)])"
    want = 0.8 * (1.0 - 0.09) / abs(1.0 - 0.3 * np.exp(1j)) ** 2
    assert abs(inst.density_at(1.0) - want) < 1e-15


def test_builder_gates():
    with pytest.raises((FamilyValidationError, OutOfRange)):
        build_family({"name": "bernstein_szego", "r": 1.0}, 256, 4)
    with pytest.raises((FamilyValidationError, OutOfRange)):
        build_family({"name": "geronimus", "a": 1.0}, 256, 4)
    with pytest.raises((FamilyValidationError, OutOfRange)):
        build_family({"name": "ell2", "c": 0.5, "p": 1.0}, 256, 64)
    with pytest.raises(OutOfRange):
        build_family({"name": "no_such_family"}, 256, 4)


def test_ell2_validation_refuses_past_three_digits():
    # ell2(0.5, 1) at depth 257 loses 2.7 digits and builds; ell2(0.7, 1)
    # at depth 65 loses 3.13 and fails its roundtrip, so it is refused
    families.check_spec({"name": "ell2", "c": 0.5, "p": 1.0}, 32768, 257)
    with pytest.raises(FamilyValidationError, match="lose 3.13 digits"):
        families.check_spec({"name": "ell2", "c": 0.7, "p": 1.0}, 4096, 65)


def test_ell2_roundtrip_runs_the_cascade_only(spy):
    # the roundtrip reads the moments once, at depth min(ROUTE_DEPTH, 65),
    # and never sweeps the grid nodes
    cascade = spy(lambda mu, n_max: n_max, families, "schur_parameters_from_measure")
    values = spy(lambda mu, n_max: n_max, families, "verblunsky_from_measure")
    build_family({"name": "ell2", "c": 0.5, "p": 1.0}, 8192, 65)
    assert cascade == [64]
    assert values == []


@pytest.mark.parametrize(
    "c, p, depth, message",
    [
        # under-resolved Fourier tails on 4096 nodes: gaps 1.09e-3, 3.56e-6
        # and 5.4e-7 against the 1e-6 bound
        (0.617, 0.887, 33, "roundtrip off by 0.00109 at depth 33"),
        (0.819, 1.218, 65, "roundtrip off by 3.56e-06 at depth 64"),
        (0.778, 1.196, 65, None),
    ],
)
def test_ell2_cascade_gap_is_the_value_recursion_gap(c, p, depth, message):
    spec = {"name": "ell2", "c": c, "p": p}
    if message is None:
        build_family(spec, 4096, depth)
    else:
        with pytest.raises(FamilyValidationError, match=message):
            build_family(spec, 4096, depth)
    mu = families.FAMILIES["ell2"].measure(4096, depth, c=c, p=p)
    d = min(ROUTE_DEPTH, depth)
    exact = families._ell2_parameters(depth, c, p).values[:d]
    gaps = [
        np.max(np.abs(route(mu, d).values - exact))
        for route in (schur_parameters_from_measure, verblunsky_from_measure)
    ]
    assert abs(gaps[0] - gaps[1]) <= 1e-14


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    c=st.floats(0.0, 1.2),
    p=st.floats(0.0, 4.0),
    depth=st.integers(0, N_MAX),
    shift=st.integers(-2, 2),
)
def test_accepted_ell2_specs_keep_the_roundtrip_moments_trusted(c, p, depth, shift):
    # the build's cascade reads c_0..c_d at d = min(ROUTE_DEPTH, depth), and
    # min_grid = 56 (depth + 8) nodes gives N/8 >= 7 (depth + 8) > d, so it
    # never meets AliasRisk on a spec validation accepts; the grids drawn
    # sit around the floor, the tightest case
    floor = families.FAMILIES["ell2"].min_grid(depth)
    grid_size = 1 << max(8, (floor - 1).bit_length() + shift)
    try:
        families.check_spec({"name": "ell2", "c": c, "p": p}, grid_size, depth)
    except (FamilyValidationError, OutOfRange):
        return
    assert min(ROUTE_DEPTH, depth) <= max_trusted_moment(grid_size)


LEBESGUE_THREE_ATOMS = {
    "name": "mixed",
    "base": {"name": "lebesgue"},
    "atoms": [
        {"angle": 0.5, "mass": 0.1},
        {"angle": 2.2, "mass": 0.15},
        {"angle": 4.4, "mass": 0.05},
    ],
}


@pytest.mark.parametrize(
    "spec, grid_size, depth",
    [
        ({"name": "lebesgue"}, 512, 33),
        ({"name": "lebesgue"}, 8192, 257),
        ({"name": "bernstein_szego", "r": 0.5}, 4096, 257),
        ({"name": "bernstein_szego", "r": 0.9}, 2048, 129),
        (LEBESGUE_THREE_ATOMS, 1024, 65),
        (
            {
                "name": "mixed",
                "base": {"name": "bernstein_szego", "r": 0.3},
                "atoms": [{"angle": 2.0, "mass": 0.2}],
            },
            16384,
            257,
        ),
    ],
    ids=["leb512", "leb8192", "bs_half", "bs_0.9", "mixed_three", "mixed_workload"],
)
def test_cascade_builds_hold_the_value_route(spy, spec, grid_size, depth):
    # a double cascade within 4 digits stands as the build's parameters,
    # within 1e-13 of the value recursion over every node, and sweeps no node
    values = spy(lambda mu, n_max: n_max, families, "verblunsky_from_measure")
    inst = build_family(spec, grid_size, depth)
    assert inst.route == SERIES_CASCADE
    assert values == []
    want = verblunsky_from_measure(inst.measure, depth).values
    assert np.max(np.abs(inst.params.values - want)) <= 1e-13


def test_heavy_atom_mixed_build_falls_back_to_the_value_route(spy):
    # a mass of 0.7 holds |a_n| near 1/(n + 1.4): the double cascade loses
    # more than 4 digits by depth 257, so the build drops that pass and
    # takes the value recursion, never the fixed-point cascade
    spec = {
        "name": "mixed",
        "base": {"name": "lebesgue"},
        "atoms": [{"angle": 2.0, "mass": 0.7}],
    }
    exact = spy(lambda *args: args[-1], schur, "_cascade_mp")
    inst = build_family(spec, 4096, 257)
    c = moments(inst.measure, 257)
    _, loss, escaped = _cascade(c[1:], c[:-1], 257, FloatBlock)
    assert escaped is None and loss > _SAFE_DIGIT_LOSS
    assert inst.route == VALUE_RECURSION
    assert exact == []
    want = verblunsky_from_measure(inst.measure, 257).values
    assert np.array_equal(inst.params.values, want)


def test_geronimus_build_reads_no_moments(spy):
    # geronimus takes the value recursion directly: its double cascade
    # would lose far more than 4 digits and be thrown away
    read = spy(lambda mu, k_max: k_max, measure, "moments", families)
    passes = spy(lambda *args: args[2], schur, "_cascade", families)
    inst = build_family({"name": "geronimus", "a": 0.6}, 4096, 65)
    assert inst.route == VALUE_RECURSION
    assert read == [] and passes == []


@pytest.mark.parametrize(
    "spec",
    [{"name": "lebesgue"}, {"name": "bernstein_szego", "r": 0.3}, LEBESGUE_THREE_ATOMS],
    ids=["lebesgue", "bs", "mixed"],
)
def test_builds_past_the_trusted_band_take_the_value_route(spy, spec):
    # the cascade at depth 33 on 256 nodes would read c_33, past N/8 = 32:
    # the build asks for no moment past the band, so it meets no AliasRisk,
    # and sweeps the nodes instead
    read = spy(lambda mu, k_max: k_max, measure, "moments", families)
    inst = build_family(spec, 256, 33)
    assert 33 > max_trusted_moment(256)
    assert inst.route == VALUE_RECURSION
    assert max(read, default=0) <= max_trusted_moment(256)
    assert np.array_equal(
        inst.params.values, verblunsky_from_measure(inst.measure, 33).values
    )


def test_descriptions_cover_builders():
    for name in ("lebesgue", "bernstein_szego", "geronimus", "ell2", "mixed"):
        assert name in FAMILY_DESCRIPTIONS


def test_conditioning_horizon_shrinks_with_magnitude():
    small = SchurParameters(np.full(64, 0.1, dtype=complex))
    large = SchurParameters(np.full(64, 0.9, dtype=complex))
    assert conditioning_horizon(large) < conditioning_horizon(small)


def test_certified_angles_have_positive_density(all_families):
    for inst in all_families:
        for angle in inst.test_angles:
            assert inst.density_at(angle) > 0.0, inst.name
