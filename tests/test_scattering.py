"""Scattering solutions, the dual measure, and the pairing identities."""

import numpy as np
import pytest

from opuclab.errors import OutOfRange
from opuclab.families import build_family
from opuclab.measure import CircleMeasure
from opuclab.opuc import dual_parameters
from opuclab.scattering import jost_step_defects

from oracles import (
    averaged_jost_deviation,
    duality_identity_residual,
    herglotz_boundary,
    jost_solutions,
    jost_step_defects_loop,
    jost_target,
)

FAMILIES = ["leb", "bs_half", "geronimus6", "ell2_half", "mixed_atom"]


def _angles(inst):
    return (*inst.test_angles, 2.5, 5.9)


def test_jost_solutions_satisfy_the_recursion(ell2_half):
    xi = complex(np.exp(1j * ell2_half.test_angles[1]))
    plus, minus = jost_solutions(
        ell2_half.measure, ell2_half.params, xi, 256
    )
    assert plus.side == "+" and minus.side == "-"
    assert max([0.0, *jost_step_defects(ell2_half.params, plus)]) < 1e-8
    assert max([0.0, *jost_step_defects(ell2_half.params, minus)]) < 1e-8


def test_jost_targets():
    xi = complex(np.exp(0.7j))
    from opuclab.scattering import JostSolution

    plus = JostSolution(xi, "+", np.zeros((3, 2), dtype=complex))
    minus = JostSolution(xi, "-", np.zeros((3, 2), dtype=complex))
    assert plus.n_max == 2
    assert np.allclose(jost_target(plus, 2), [xi**2, 0.0])
    assert np.allclose(jost_target(minus, 2), [0.0, 1.0])


def test_averaged_deviation_decreases(ell2_half):
    xi = complex(np.exp(1j * ell2_half.test_angles[1]))
    plus, _ = jost_solutions(ell2_half.measure, ell2_half.params, xi, 256)
    devs = [averaged_jost_deviation(plus, n) for n in (64, 128, 256)]
    assert all(b < a for a, b in zip(devs, devs[1:])), devs
    with pytest.raises(OutOfRange):
        averaged_jost_deviation(plus, 258)


def test_duality_identity(ell2_half):
    res = duality_identity_residual(
        ell2_half.measure, ell2_half.params, n_check=32
    )
    assert res < 1e-6


def test_dual_of_dual_is_identity(bs_half):
    back = dual_parameters(dual_parameters(bs_half.params))
    assert np.array_equal(back.values, bs_half.params.values)


def test_herglotz_real_part_is_the_weight(bs_half):
    mu = bs_half.measure
    f = herglotz_boundary(mu)
    assert np.max(np.abs(f.real - mu.weight)) < 1e-10


def test_lebesgue_jost_solutions_are_free(leb):
    # with no parameters the solutions coincide with their targets
    plus, minus = jost_solutions(leb.measure, leb.params, 1.0, 64)
    for n in (0, 16, 64):
        assert np.allclose(plus.entries[n], jost_target(plus, n), atol=1e-12)
        assert np.allclose(minus.entries[n], jost_target(minus, n), atol=1e-12)


def test_jost_solutions_read_no_grid_points(monkeypatch, mixed_atom):
    # F and D are read at the snapped node; the N grid points are not formed
    reads = []
    evaluate = CircleMeasure.boundary_points.fget

    def counted(mu):
        reads.append(mu.grid_size)
        return evaluate(mu)

    monkeypatch.setattr(CircleMeasure, "boundary_points", property(counted))
    plus, _ = jost_solutions(mixed_atom.measure, mixed_atom.params, np.exp(2.5j), 64)
    pairs = jost_solutions(
        mixed_atom.measure, mixed_atom.params, np.exp([2.5j, 5.9j, 1.0j]), 64
    )
    assert reads == []
    assert plus.n_max == 64
    assert [minus.n_max for _, minus in pairs] == [64, 64, 64]


@pytest.mark.parametrize("family", FAMILIES)
def test_jost_solutions_on_an_array_are_the_one_point_calls_bitwise(
    family, request
):
    inst = request.getfixturevalue(family)
    angles = _angles(inst)
    pairs = jost_solutions(
        inst.measure, inst.params, np.exp(1j * np.array(angles)), 64
    )
    assert len(pairs) == len(angles)
    for angle, pair in zip(angles, pairs):
        one = jost_solutions(inst.measure, inst.params, np.exp(1j * angle), 64)
        for got, want in zip(pair, one):
            assert got.side == want.side
            assert got.xi == want.xi
            assert np.array_equal(got.entries, want.entries), (family, angle)
        # the node is the grid point nearest the angle
        j = round(angle % (2 * np.pi) * inst.measure.grid_size / (2 * np.pi))
        assert pair[0].xi == inst.measure.boundary_points[j % inst.measure.grid_size]


@pytest.mark.parametrize("family", FAMILIES)
def test_jost_step_defects_are_the_per_step_loop_bitwise(family, request):
    inst = request.getfixturevalue(family)
    n_max = 256 if family == "ell2_half" else 64
    angles = _angles(inst)
    pairs = jost_solutions(
        inst.measure, inst.params, np.exp(1j * np.array(angles)), n_max
    )
    for angle, pair in zip(angles, pairs):
        for sol in pair:
            got = jost_step_defects(inst.params, sol)
            want = jost_step_defects_loop(inst.params, sol)
            assert got.shape == want.shape == (n_max,)
            assert np.array_equal(got, want), (family, angle, sol.side)


def test_jost_solutions_refuse_an_atom_node_for_the_whole_call():
    inst = build_family(
        {
            "name": "mixed",
            "base": {"name": "lebesgue"},
            "atoms": [{"angle": 0.0, "mass": 0.2}],
        },
        256,
        8,
    )
    with pytest.raises(OutOfRange, match="carries an atom"):
        jost_solutions(inst.measure, inst.params, np.exp([2.5j, 0j]), 8)
