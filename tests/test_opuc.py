"""Transfer-matrix evaluation, moment recursion, CD kernels, dual parameters."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import opuclab
from opuclab import opuc
from opuclab.errors import OutOfRange, PositivityLoss
from opuclab.families import FAMILIES, build_family
from opuclab.measure import _as_boundary, build_measure, moment, moments
from opuclab.opuc import (
    cd_kernel_cmv,
    cd_kernel_poly,
    cd_kernel_sum,
    chi,
    chi_table,
    dual_parameters,
    eval_grid_pair,
    eval_grid_table,
    eval_pair,
    eval_table,
    monic_from_moments,
    verblunsky_from_measure,
    verblunsky_from_moments,
    weight_from_parameters,
)
from opuclab.schur import (
    _SAFE_DIGIT_LOSS,
    SchurParameters,
    schur_parameters_from_measure,
)

from oracles import (
    cd_kernel_bruteforce,
    gram_schmidt_verblunsky,
    monic_from_moments_mp,
    phi_at_node_mp,
    value_recursion_fresh_arrays,
)


def test_first_polynomial_closed_form(bs_half):
    # phi_1(z) = (z - 1/2)/sqrt(3/4); at z = 1 that is 1/sqrt(3)
    pair = eval_pair(bs_half.params, 1.0 + 0j, 1)
    assert abs(pair.phi - 0.5773502691896258) < 1e-12
    assert abs(pair.phi_star - 0.5773502691896258) < 1e-12


def test_eval_table_matches_pairwise(bs_half):
    z = 0.3 - 0.6j
    phi, phis = eval_table(bs_half.params, z, 12)
    for n in range(13):
        pair = eval_pair(bs_half.params, z, n)
        assert abs(phi[n] - pair.phi) < 1e-12
        assert abs(phis[n] - pair.phi_star) < 1e-12


def test_moment_recursion_against_gram_schmidt(bs_half):
    # dense orthogonalization of the monomials is the independent route
    oracle = gram_schmidt_verblunsky(bs_half.measure, 24)
    assert abs(oracle[0] - 0.5) < 1e-10
    assert np.max(np.abs(oracle - bs_half.params.values[:24])) < 1e-8


def test_gram_schmidt_agrees_on_atomic_measure(mixed_atom):
    oracle = gram_schmidt_verblunsky(mixed_atom.measure, 24)
    assert np.max(np.abs(oracle - mixed_atom.params.values[:24])) < 1e-8


def test_norm_telescoping(bs_half):
    d = 32
    moms = np.array([moment(bs_half.measure, k) for k in range(d + 1)])
    table = monic_from_moments(moms, d)
    assert abs(table.norms_sq[1] / table.norms_sq[0] - 0.75) < 1e-12
    ratios = table.norms_sq[1:] / table.norms_sq[:-1]
    target = 1.0 - np.abs(table.params.values) ** 2
    assert np.max(np.abs(ratios - target) / target) < 1e-10


def test_monic_rejects_indefinite_moments():
    bad = np.array([1.0, 2.0, 0.0])  # |c_1| > c_0 cannot come from a measure
    with pytest.raises(PositivityLoss):
        monic_from_moments(bad, 2)


def test_monic_needs_enough_moments():
    with pytest.raises(OutOfRange):
        monic_from_moments(np.array([1.0, 0.1]), 4)


def test_extraction_routes_agree(all_families):
    for inst in all_families:
        d = 24
        cascade = schur_parameters_from_measure(inst.measure, d).values
        moms = np.array([moment(inst.measure, k) for k in range(d + 1)])
        levinson = verblunsky_from_moments(moms, d).values
        assert np.max(np.abs(cascade - levinson)) < 1e-9, inst.name


@pytest.mark.parametrize("a", [0.6, 0.9])
def test_moment_route_matches_a_60_digit_recursion(a):
    c = moments(FAMILIES["geronimus"].measure(4096, 65, a=a), 64)
    table = monic_from_moments(c, 64)
    params, norms = monic_from_moments_mp(c, 64)
    assert np.max(np.abs(table.params.values - params)) < 1e-15
    assert np.max(np.abs(table.norms_sq - norms) / norms) < 1e-15


@pytest.mark.parametrize(
    "spec, grid_size, exact_passes",
    [
        ({"name": "ell2", "c": 0.5, "p": 1.0}, 32768, 0),
        ({"name": "bernstein_szego", "r": 0.9}, 4096, 0),
        ({"name": "geronimus", "a": 0.6}, 4096, 1),
    ],
    ids=["ell2", "bernstein_szego-0.9", "geronimus"],
)
def test_moment_route_goes_exact_only_past_four_digits(
    monkeypatch, spec, grid_size, exact_passes
):
    family = FAMILIES[spec["name"]]
    args = {key: value for key, value in spec.items() if key != "name"}
    c = moments(family.measure(grid_size, 257, **args), 64)
    passes = []
    exact = opuc._monic_exact

    def spy(*call):
        passes.append(call)
        return exact(*call)

    monkeypatch.setattr(opuc, "_monic_exact", spy)
    monic_from_moments(c, 64)
    assert len(passes) == exact_passes


def test_extended_precision_only_where_it_buys_digits():
    # the value-space extraction keeps long double because a double copy
    # of it fails a test (README, "Precision"); the cascade and the moment
    # recursion escalate to fixed point in Python integers, so no module
    # imports mpmath.  A new site needs the same evidence.
    kept = {"verblunsky_from_measure"}
    package = Path(opuclab.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "mpmath" for m in modules), path.name
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("longdouble", "clongdouble"):
                found.add(owner.get(node, f"{path.name} at module level"))
    assert found == kept


def _recursion_dtypes(monkeypatch):
    """A list that records the dtype of each value-space recursion pass."""
    dtypes = []
    recursion = opuc._value_recursion

    def spy(xi, *args):
        dtypes.append(xi.dtype.type)
        return recursion(xi, *args)

    monkeypatch.setattr(opuc, "_value_recursion", spy)
    return dtypes


@pytest.mark.parametrize(
    "spec, grid_size, depth",
    [
        # mixed-mnt-quadrature measure, digit loss 3.87
        (
            {
                "name": "mixed",
                "base": {"name": "bernstein_szego", "r": 0.3},
                "atoms": [{"angle": 2.0, "mass": 0.2}],
            },
            16384,
            257,
        ),
        # loss 2.71
        ({"name": "ell2", "c": 0.5, "p": 1.0}, 32768, 257),
        # loss 1.28
        ({"name": "bernstein_szego", "r": 0.9}, 4096, 65),
        # three atoms on lebesgue, loss 3.03
        (
            {
                "name": "mixed",
                "base": {"name": "lebesgue"},
                "atoms": [
                    {"angle": 0.0, "mass": 0.1},
                    {"angle": 1.0, "mass": 0.1},
                    {"angle": math.pi, "mass": 0.1},
                ],
            },
            4096,
            65,
        ),
    ],
    ids=["mixed-mnt-quadrature", "ell2", "bernstein_szego-0.9", "mixed-three-atoms"],
)
def test_value_recursion_stays_in_double_within_four_digits(
    monkeypatch, spec, grid_size, depth
):
    mu = build_family(spec, grid_size, depth).measure
    xi, q = mu.quadrature()
    extended = opuc._value_recursion(
        xi.astype(np.clongdouble), q.astype(np.longdouble), depth, math.inf
    )
    dtypes = _recursion_dtypes(monkeypatch)
    params = verblunsky_from_measure(mu, depth)
    assert dtypes == [np.complex128]
    assert np.max(np.abs(params.values - extended)) < 1e-14


def test_value_recursion_goes_extended_past_four_digits(monkeypatch, geronimus6):
    dtypes = _recursion_dtypes(monkeypatch)
    verblunsky_from_measure(geronimus6.measure, 65)
    assert dtypes == [np.complex128, np.clongdouble]


def test_value_recursion_escape_survives_the_double_pass(monkeypatch):
    # three atoms carry all but 1e-13 of the mass, so a_2 escapes
    mu = build_measure(
        np.full(1024, 1e-13), [(0.0, 0.4), (2.0, 0.3), (4.0, 0.3 - 1e-13)]
    )
    dtypes = _recursion_dtypes(monkeypatch)
    with pytest.raises(PositivityLoss, match=r"\|a_2\|"):
        verblunsky_from_measure(mu, 8)
    assert dtypes == [np.complex128, np.clongdouble]


def _recursion_outcome(recursion, xi, q, n_max, max_loss):
    """("values", their bytes), ("none", None) or ("raises", the message)."""
    try:
        values = recursion(xi, q, n_max, max_loss)
    except PositivityLoss as exc:
        return "raises", str(exc)
    return ("none", None) if values is None else ("values", values.tobytes())


_MIXED_ATOM = {
    "name": "mixed",
    "base": {"name": "bernstein_szego", "r": 0.3},
    "atoms": [{"angle": 2.0, "mass": 0.2}],
}
_ELL2 = {"name": "ell2", "c": 0.5, "p": 1.0}
_GERONIMUS = {"name": "geronimus", "a": 0.6}


def _escaping_measure(*_):
    # three atoms carry all but 1e-13 of the mass, so a_2 escapes
    atoms = [(0.0, 0.4), (2.0, 0.3), (4.0, 0.3 - 1e-13)]
    return build_measure(np.full(1024, 1e-13), atoms)


def _family_measure(spec, grid_size, depth):
    return build_family(spec, grid_size, depth).measure


@pytest.mark.parametrize(
    "measure, args, extended, max_loss, expected",
    [
        (_family_measure, (_MIXED_ATOM, 16384, 257), False, _SAFE_DIGIT_LOSS, "values"),
        (_family_measure, (_ELL2, 32768, 257), False, _SAFE_DIGIT_LOSS, "values"),
        (_family_measure, (_GERONIMUS, 4096, 65), True, math.inf, "values"),
        # the double pass stops at the four-digit gate
        (_family_measure, (_GERONIMUS, 4096, 65), False, _SAFE_DIGIT_LOSS, "none"),
        # a_2 escapes in both passes
        (_escaping_measure, (None, 1024, 8), False, _SAFE_DIGIT_LOSS, "raises"),
        (_escaping_measure, (None, 1024, 8), True, math.inf, "raises"),
    ],
    ids=[
        "mixed-mnt-quadrature",
        "ell2",
        "geronimus-extended",
        "geronimus-gate",
        "escape-double",
        "escape-extended",
    ],
)
def test_value_recursion_matches_fresh_array_form_bitwise(
    measure, args, extended, max_loss, expected
):
    depth = args[2]
    xi, q = measure(*args).quadrature()
    if extended:
        xi, q = xi.astype(np.clongdouble), q.astype(np.longdouble)
    fast = _recursion_outcome(opuc._value_recursion, xi, q, depth, max_loss)
    fresh = _recursion_outcome(value_recursion_fresh_arrays, xi, q, depth, max_loss)
    assert fresh[0] == expected
    assert fast == fresh


def test_atom_insertion_route(mixed_atom):
    direct = verblunsky_from_measure(mixed_atom.measure, 24)
    cascade = schur_parameters_from_measure(mixed_atom.measure, 24)
    assert np.max(np.abs(direct.values - cascade.values)) < 1e-9


@pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("theta", [0.0, 2.0, 4.0])
def test_single_atom_on_lebesgue_closed_form(t, theta):
    # (1 - t) dm + t delta at e^{i theta}: a_n = t e^{-i(n+1) theta} / (1 + n t)
    mu = build_measure(np.full(4096, 1.0 - t), [(theta, t)])
    n = np.arange(64)
    exact = t * np.exp(-1j * (n + 1) * theta) / (1.0 + n * t)
    a = verblunsky_from_measure(mu, 64).values
    assert np.max(np.abs(a - exact)) < 1e-13


def test_dual_parameters_negate_and_involute(bs_half):
    dual = dual_parameters(bs_half.params)
    assert np.array_equal(dual.values, -bs_half.params.values)
    again = dual_parameters(dual)
    assert np.array_equal(again.values, bs_half.params.values)


def test_cd_kernel_routes_interior(geronimus6):
    # quotient form against the brute-force sum at interior points
    for xi, z, n in ((0.5 + 0.1j, 0.3, 5), (0.7j, -0.4, 9)):
        direct = cd_kernel_bruteforce(geronimus6.params, xi, z, n)
        assert abs(cd_kernel_sum(geronimus6.params, xi, z, n) - direct) < 1e-9
        assert abs(cd_kernel_poly(geronimus6.params, xi, z, n) - direct) < 1e-8


def test_cd_kernel_routes_boundary(mixed_atom):
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        xi = complex(np.exp(1j * t1))
        z = complex(np.exp(1j * t2))
        if abs(1.0 - np.conj(xi) * z) < 0.1:
            continue
        n = int(rng.integers(1, 24))
        direct = cd_kernel_sum(mixed_atom.params, xi, z, n)
        quotient = cd_kernel_poly(mixed_atom.params, xi, z, n)
        laurent = cd_kernel_cmv(mixed_atom.params, xi, z, n)
        prefactor = (xi * np.conj(z)) ** (n // 2)
        scale = max(1.0, abs(direct))
        assert abs(direct - quotient) / scale < 1e-9
        assert abs(prefactor * direct - laurent) / scale < 1e-9


def test_cmv_basis_interleaves_polynomials(bs_half):
    xi = complex(np.exp(0.9j))
    values = chi_table(bs_half.params, xi, 9)
    for j in range(10):
        assert abs(chi(bs_half.params, xi, j) - values[j]) < 1e-12
    # chi_0 is the constant 1; chi_1 is phi_1
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(values[1] - eval_pair(bs_half.params, xi, 1).phi) < 1e-12


def test_weight_reconstruction_matches_density(bs_half):
    w = weight_from_parameters(bs_half.params.truncated(8), 512)
    angles = 2.0 * np.pi * np.arange(512) / 512
    target = np.array([bs_half.density_at(t) for t in angles])
    assert np.max(np.abs(w - target)) < 1e-10


def _transfer_weight(params, grid_size):
    """1/|phi_K|^2 on the grid by K transfer steps at every node."""
    nodes = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    phi, _ = eval_grid_pair(params, nodes, len(params))
    return 1.0 / np.abs(phi) ** 2


def test_weight_folds_coefficients_on_a_coarse_grid():
    # N = 64 <= K = 100: degrees k and k + 64 meet at every node
    values = 0.4 * np.exp(0.7j * np.arange(100)) / (np.arange(100) + 1.0)
    params = SchurParameters(values)
    w = weight_from_parameters(params, 64)
    assert np.max(np.abs(w / _transfer_weight(params, 64) - 1.0)) < 1e-13
    empty = weight_from_parameters(SchurParameters(np.zeros(0)), 64)
    assert np.array_equal(empty, np.ones(64))


def test_weight_matches_extended_transfer_recursion():
    # ell2(0.5, 1) at its deep-run depth; the FFT error is about
    # 10^(digit loss 2.7) * eps, measured 1.9e-14
    values = 0.5 / (np.arange(264) + 1.0)
    grid_size = 32768
    w = weight_from_parameters(SchurParameters(values), grid_size)
    nodes = np.linspace(0, grid_size - 1, 16).astype(int)
    exact = np.array(
        [1.0 / abs(phi_at_node_mp(values, j, grid_size)) ** 2 for j in nodes]
    )
    assert np.max(np.abs(w[nodes] / exact - 1.0)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_weight_agrees_with_pointwise_transfer(values):
    params = SchurParameters(np.array(values, dtype=complex))
    w = weight_from_parameters(params, 4096)
    assert np.max(np.abs(w / _transfer_weight(params, 4096) - 1.0)) < 1e-12


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=complex).tobytes()


_POINT = st.tuples(
    st.booleans(),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["ell2_half", "geronimus6", "mixed_atom"]),
    drawn=st.lists(_POINT, min_size=1, max_size=12),
    n=st.integers(min_value=0, max_value=33),
    extra=st.integers(min_value=1, max_value=8),
)
def test_table_columns_are_one_point_tables_bitwise(
    ell2_half, geronimus6, mixed_atom, family, drawn, n, extra
):
    # the sampled checks read every point from one table
    params = {
        "ell2_half": ell2_half,
        "geronimus6": geronimus6,
        "mixed_atom": mixed_atom,
    }[family].params
    zs = np.array(
        [
            _as_boundary(complex(np.exp(1j * t))) if boundary else r * np.exp(1j * t)
            for boundary, r, t in drawn
        ],
        dtype=complex,
    )
    phi, phis = eval_grid_table(params, zs, n)
    for j, z in enumerate(zs):
        one_phi, one_phis = eval_table(params, complex(z), n)
        assert _bits(phi[:, j]) == _bits(one_phi)
        assert _bits(phis[:, j]) == _bits(one_phis)
        pair = eval_pair(params, complex(z), n)
        assert _bits([pair.phi, pair.phi_star]) == _bits([phi[n, j], phis[n, j]])
    deep_phi, deep_phis = eval_grid_table(params, zs, n + extra)
    assert _bits(deep_phi[: n + 1]) == _bits(phi)
    assert _bits(deep_phis[: n + 1]) == _bits(phis)


def test_phi_star_nonvanishing_inside(geronimus6):
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.uniform(0, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        _, phis = eval_table(geronimus6.params, complex(z), 24)
        assert np.min(np.abs(phis)) > 1e-8


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_parameters_roundtrip_through_weight(values):
    params = SchurParameters(np.array(values, dtype=complex))
    w = weight_from_parameters(params, 4096)
    # the roundtrip contract assumes the grid resolves the density; some
    # draws put polynomial zeros close enough to the circle that even a
    # fine grid aliases, and those are out of scope rather than failures
    tail = np.max(np.abs(np.fft.rfft(w)[-8:])) / len(w)
    assume(tail < 1e-12)
    mu = build_measure(w, normalize=True)
    back = schur_parameters_from_measure(mu, len(values))
    assert np.max(np.abs(back.values - params.values)) < 1e-6
