"""Transfer-matrix evaluation, moment recursion, CD kernels, dual parameters."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import opuclab
from opuclab import opuc
from opuclab.errors import OutOfRange, PositivityLoss
from opuclab.families import FAMILIES, build_family
from opuclab.measure import _as_boundary, build_measure, moment, moments
from opuclab.opuc import (
    cd_quotient,
    chi_grid_table,
    dual_parameters,
    eval_grid_table,
    monic_from_moments,
    verblunsky_from_measure,
)
from opuclab.schur import SchurParameters, schur_parameters_from_measure

from oracles import (
    cd_kernel_bruteforce,
    cd_kernel_routes,
    chi_table,
    coefficient_steps_fresh,
    eval_pair,
    eval_table,
    exact_pass_outcome,
    gram_full_table,
    gram_schmidt_verblunsky,
    monic_fixed,
    monic_from_moments_mp,
    phi_at_node_mp,
    value_recursion_fresh_arrays,
    weight_from_parameters,
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


@pytest.mark.parametrize("moments", [[1.0, math.nan, 0.1], [1.0, math.inf]])
def test_monic_refuses_non_finite_moments(moments):
    # refused up front, as the series cascade refuses a non-finite u or v,
    # before a NaN digit-loss sum reaches the precision rule
    with pytest.raises(OutOfRange, match="finite"):
        monic_from_moments(np.array(moments, dtype=complex), len(moments) - 1)


def test_exact_moment_recursion_rounds_a_parameter_past_the_double_range():
    # a_1 lies past the double range, so the exact pass rounds it to inf,
    # as the double pass does, and reads that as an escape
    c = np.array([1, 0.5, 1.5e308 + 1.5e308j, 0.1])
    with pytest.raises(PositivityLoss, match=r"\|a_1\| = inf "):
        monic_from_moments(c, 3)
    outcome = exact_pass_outcome(opuc._monic_exact, c, 3, 30)
    assert outcome == exact_pass_outcome(monic_fixed, c, 3, 30)
    assert outcome[0] is PositivityLoss


def test_extraction_routes_agree(all_families):
    for inst in all_families:
        d = 24
        cascade = schur_parameters_from_measure(inst.measure, d).values
        moms = np.array([moment(inst.measure, k) for k in range(d + 1)])
        levinson = monic_from_moments(moms, d).params.values
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
    spy, spec, grid_size, exact_passes
):
    family = FAMILIES[spec["name"]]
    args = {key: value for key, value in spec.items() if key != "name"}
    c = moments(family.measure(grid_size, 257, **args), 64)
    passes = spy(lambda *call: call, opuc, "_monic_exact")
    monic_from_moments(c, 64)
    assert len(passes) == exact_passes


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 6.3)), min_size=1, max_size=5
    ),
    spread=st.sampled_from([0.0, 1e-20, 1e-13, 1e-8, 1e-3, 0.5]),
    c0_shift=st.sampled_from([0.0, 0.0, -1.5, 0.1j]),
    n_max=st.integers(1, 9),
    dps=st.integers(20, 90),
)
@example(atoms=[(1.0, 0.3)], spread=0.0, c0_shift=-1.5, n_max=3, dps=30)
@example(atoms=[(1.0, 0.3), (0.5, 2.0)], spread=1e-13, c0_shift=0.0, n_max=4, dps=40)
@example(atoms=[(1.0, 0.3), (0.5, 2.0)], spread=0.5, c0_shift=0.0, n_max=6, dps=330)
def test_exact_moment_recursion_is_the_fixed_reference_bitwise(
    atoms, spread, c0_shift, n_max, dps
):
    # parameters, norms and digit loss, or the PositivityLoss and its
    # message (escape or a norm that is not positive), are those of the
    # recursion on one Fixed object per number.  The moments are those of
    # a few atoms plus ``spread`` of Lebesgue measure, so they lose
    # positivity or escape near a finitely supported measure, and a shifted
    # c_0 breaks positivity at degree 0.
    masses, angles = np.array(atoms).T
    masses *= (1.0 - spread) / masses.sum()
    k = np.arange(n_max + 1)[:, None]
    c = (masses * np.exp(-1j * k * angles)).sum(axis=1)
    c[0] += spread + c0_shift
    assert exact_pass_outcome(opuc._monic_exact, c, n_max, dps) == exact_pass_outcome(
        monic_fixed, c, n_max, dps
    )


def test_extended_precision_only_where_it_buys_digits():
    # the cascade and the moment recursion escalate to fixed point in
    # Python integers, so no module imports mpmath, and the value-space
    # extraction runs once in double because no test or verdict needs more
    # (README, "Precision").  A long double site needs a failing double
    # copy as evidence.
    kept = set()
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


def _recursion_dtypes(spy):
    """A list that records the dtype of each value-space recursion pass."""
    return spy(lambda xi, *args: xi.dtype.type, opuc, "_value_recursion")


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
    spy, spec, grid_size, depth
):
    mu = build_family(spec, grid_size, depth).measure
    xi, q = mu.quadrature()
    extended = opuc._value_recursion(
        xi.astype(np.clongdouble), q.astype(np.longdouble), depth
    )
    dtypes = _recursion_dtypes(spy)
    params = verblunsky_from_measure(mu, depth)
    assert dtypes == [np.complex128]
    assert np.max(np.abs(params.values - extended)) < 1e-14


def test_value_recursion_runs_once_in_double_past_four_digits(spy, geronimus6):
    # geronimus(0.6) loses 13.5 digits by depth 64
    dtypes = _recursion_dtypes(spy)
    verblunsky_from_measure(geronimus6.measure, 65)
    assert dtypes == [np.complex128]


def test_value_recursion_escape_survives_the_double_pass(spy):
    # three atoms carry all but 1e-13 of the mass, so a_2 escapes, and the
    # one double pass raises it
    mu = build_measure(
        np.full(1024, 1e-13), [(0.0, 0.4), (2.0, 0.3), (4.0, 0.3 - 1e-13)]
    )
    dtypes = _recursion_dtypes(spy)
    with pytest.raises(PositivityLoss, match=r"\|a_2\|"):
        verblunsky_from_measure(mu, 8)
    assert dtypes == [np.complex128]


def test_depth_zero_extraction_forms_no_quadrature(spy, bs_half):
    # a mixed family's builder runs its base builder at depth 0 for the
    # base's name and density only, and the build rule's cascade holds
    # there, so building the mixed-mnt-quadrature spec reaches no value
    # route; called at depth 0, the route runs no step
    formed = spy(lambda mu: mu.grid_size, type(bs_half.measure), "quadrature")
    build_family(_MIXED_ATOM, 16384, 257)
    assert formed == []
    params = verblunsky_from_measure(bs_half.measure, 0)
    assert len(params) == 0 and params.values.dtype == complex


def _recursion_outcome(recursion, xi, q, n_max):
    """("values", their bytes) or ("raises", the message)."""
    try:
        values = recursion(xi, q, n_max)
    except PositivityLoss as exc:
        return "raises", str(exc)
    return "values", values.tobytes()


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
    "measure, args, extended, expected",
    [
        (_family_measure, (_MIXED_ATOM, 16384, 257), False, "values"),
        (_family_measure, (_ELL2, 32768, 257), False, "values"),
        # the recursion runs in the dtype it is given
        (_family_measure, (_GERONIMUS, 4096, 65), True, "values"),
        # a_2 escapes in either dtype
        (_escaping_measure, (None, 1024, 8), False, "raises"),
        (_escaping_measure, (None, 1024, 8), True, "raises"),
    ],
    ids=[
        "mixed-mnt-quadrature",
        "ell2",
        "geronimus-extended",
        "escape-double",
        "escape-extended",
    ],
)
def test_value_recursion_matches_fresh_array_form_bitwise(
    measure, args, extended, expected
):
    depth = args[2]
    xi, q = measure(*args).quadrature()
    if extended:
        xi, q = xi.astype(np.clongdouble), q.astype(np.longdouble)
    fast = _recursion_outcome(opuc._value_recursion, xi, q, depth)
    fresh = _recursion_outcome(value_recursion_fresh_arrays, xi, q, depth)
    assert fresh[0] == expected
    assert fast == fresh


def _placed(values: np.ndarray, offset: int) -> np.ndarray:
    """A copy of values whose data starts ``offset`` bytes past a 64-byte
    boundary."""
    raw = np.empty(values.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + values.nbytes].view(values.dtype)
    out[...] = values
    return out


@pytest.mark.parametrize("offset", [0, 16, 32, 48])
def test_value_recursion_runs_on_aligned_buffers_at_any_input_offset(
    mixed_atom, offset
):
    # numpy places node-sized arrays 16 bytes apart as the heap falls, and
    # the recursion's buffers follow; its bits must not
    xi, q = mixed_atom.measure.quadrature()
    placed = _placed(xi, offset), _placed(q, offset)
    assert placed[0].ctypes.data % 64 == offset
    fast = opuc._value_recursion(*placed, 65)
    assert fast.tobytes() == value_recursion_fresh_arrays(xi, q, 65).tobytes()


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
    params = geronimus6.params
    for xi, z, n in ((0.5 + 0.1j, 0.3, 5), (0.7j, -0.4, 9)):
        direct = cd_kernel_bruteforce(params, xi, z, n)
        pxi, _ = eval_table(params, xi, n)
        pz, _ = eval_table(params, z, n)
        assert abs(complex(np.sum(np.conj(pxi) * pz)) - direct) < 1e-9
        pxi, pz = eval_pair(params, xi, n + 1), eval_pair(params, z, n + 1)
        quotient = cd_quotient(xi, z, pxi.phi, pxi.phi_star, pz.phi, pz.phi_star)
        assert abs(quotient - direct) < 1e-8


def test_cd_kernel_routes_boundary(mixed_atom):
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        xi = complex(np.exp(1j * t1))
        z = complex(np.exp(1j * t2))
        if abs(1.0 - np.conj(xi) * z) < 0.1:
            continue
        n = int(rng.integers(1, 24))
        direct, quotient, laurent = cd_kernel_routes(mixed_atom.params, xi, z, n)
        prefactor = (xi * np.conj(z)) ** (n // 2)
        scale = max(1.0, abs(direct))
        assert abs(direct - quotient) / scale < 1e-9
        assert abs(prefactor * direct - laurent) / scale < 1e-9


def test_cmv_basis_interleaves_polynomials(bs_half):
    xi = complex(np.exp(0.9j))
    values = chi_table(bs_half.params, xi, 9)
    # chi_{2h} = conj(xi)^h phi*_{2h}, chi_{2h+1} = conj(xi)^h phi_{2h+1}
    for j in range(10):
        pair = eval_pair(bs_half.params, xi, j)
        chi = np.conj(xi) ** (j // 2) * (pair.phi if j % 2 else pair.phi_star)
        assert abs(chi - values[j]) < 1e-12
    # chi_0 is the constant 1; chi_1 is phi_1
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(values[1] - eval_pair(bs_half.params, xi, 1).phi) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["ell2_half", "geronimus6", "mixed_atom"]),
    angles=st.lists(
        st.floats(min_value=0.0, max_value=2.0 * math.pi), min_size=1, max_size=8
    ),
    n=st.integers(min_value=0, max_value=33),
)
def test_chi_grid_table_columns_are_one_point_streams_bitwise(
    ell2_half, geronimus6, mixed_atom, family, angles, n
):
    # a run reads chi at every boundary point from one table
    params = {
        "ell2_half": ell2_half,
        "geronimus6": geronimus6,
        "mixed_atom": mixed_atom,
    }[family].params
    xis = np.array([_as_boundary(complex(np.exp(1j * t))) for t in angles])
    chi = chi_grid_table(*eval_grid_table(params, xis, n), xis)
    for j, xi in enumerate(xis):
        assert _bits(chi[:, j]) == _bits(chi_table(params, complex(xi), n))


def _coefficient_outcome(steps):
    """The bytes of every row pair a coefficient pass yields, then the
    message of the PositivityLoss that ends it, if one does."""
    out = []
    try:
        for phi, phis in steps:
            out.append((phi.tobytes(), phis.tobytes()))
    except PositivityLoss as err:
        out.append(str(err))
    return out


def _seeded_parameters(seed: int, size: int, top: float) -> SchurParameters:
    """``size`` parameters of modulus uniform in [0, top) and uniform phase."""
    rng = np.random.default_rng(seed)
    return SchurParameters(
        top * rng.uniform(size=size) * np.exp(2j * np.pi * rng.uniform(size=size))
    )


# ell2(0.5, 1) at depth 257: K = 265 parameters, the ell2-cmv-deep build
_ELL2_HALF_CUT = FAMILIES["ell2"].parameters(257, c=0.5, p=1.0)


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_coefficient_steps_are_the_fresh_array_form_bitwise(seed):
    # two reused buffers and one stacked update per step change no bit of
    # any row: ell2(0.5, 1) at K = 265, and 20 seeded sequences with |a|
    # up to 0.95, at their full depth and at n_max 0, 1 and 2
    if seed is None:
        params = _ELL2_HALF_CUT
    else:
        params = _seeded_parameters(seed, 2 + 15 * seed, 0.95)
    for n_max in sorted({0, 1, 2, len(params)}):
        got = _coefficient_outcome(opuc._coefficient_steps(params, n_max))
        assert got == _coefficient_outcome(coefficient_steps_fresh(params, n_max))


def _phase_parameters(size: int) -> SchurParameters:
    """|a_k| = 0.95 at seeded random phases: the growth bound of the
    coefficient pass passes half of sqrt(max double) near order 193, and
    the coefficients reach sqrt(max double) only at order 281."""
    rng = np.random.default_rng(5)
    return SchurParameters(0.95 * np.exp(2j * np.pi * rng.uniform(size=400)[:size]))


@pytest.mark.parametrize(
    "params, message",
    [
        # ell2(0.9, 0.3) at depth 257 keeps its coefficients in range (its
        # density underflows instead); ell2(0.9999999, 0.001) does not
        (FAMILIES["ell2"].parameters(257, c=0.9, p=0.3), None),
        (FAMILIES["ell2"].parameters(257, c=0.9999999, p=0.001), "phi_113 has"),
        (_phase_parameters(250), None),
        (_phase_parameters(400), "phi_281 has"),
    ],
    ids=["ell2-0.9-0.3", "ell2-0.9999999-0.001", "bound-only", "bound-then-rows"],
)
def test_positivity_loss_fires_at_the_fresh_form_order(params, message):
    # the pass reads the largest modulus only once the growth bound nears
    # sqrt(max double), and still raises at the order, with the message,
    # of the form that reads it at every step
    got = _coefficient_outcome(opuc._coefficient_steps(params, len(params)))
    assert got == _coefficient_outcome(coefficient_steps_fresh(params, len(params)))
    if message is None:
        assert not isinstance(got[-1], str)
    else:
        assert got[-1].startswith(message)


def test_phase_parameters_cross_the_growth_bound_first():
    # the premise of the "bound-only" case: its bound passes the order
    # from which the pass reads the maximum, its coefficients never do
    params = _phase_parameters(250)
    log_bound = np.cumsum(np.log1p(np.abs(params.values)) - np.log(params.rho))
    assert log_bound[-1] > math.log(opuc._MODULUS_RANGE[1] / 2.0)
    top = max(np.abs(phi).max() for phi, _ in coefficient_steps_fresh(params, 250))
    assert top < opuc._MODULUS_RANGE[1] / 1e3


def test_phi_coefficients_are_the_last_row_read_only():
    coefficients = opuc.phi_coefficients(_ELL2_HALF_CUT)
    for phi, _ in coefficient_steps_fresh(_ELL2_HALF_CUT, 265):
        pass
    assert coefficients.tobytes() == phi.tobytes()
    assert not coefficients.flags.writeable


@pytest.mark.parametrize("grid_size", [64, 265, 266, 4096])
def test_density_is_the_padded_fold_bitwise(grid_size):
    # one FFT of length N pads the K+1 = 266 coefficients itself, and only
    # K+1 > N folds them first: the values of the padded, folded copy
    coefficients = opuc.phi_coefficients(_ELL2_HALF_CUT)
    folded = np.pad(coefficients, (0, -len(coefficients) % grid_size))
    folded = folded.reshape(-1, grid_size).sum(axis=0)
    want = 1.0 / np.abs(grid_size * np.fft.ifft(folded)) ** 2
    got = opuc.density_from_coefficients(coefficients, grid_size)
    assert got.tobytes() == want.tobytes()


def test_weight_reconstruction_matches_density(bs_half):
    w = weight_from_parameters(SchurParameters(bs_half.params.values[:8]), 512)
    angles = 2.0 * np.pi * np.arange(512) / 512
    target = np.array([bs_half.density_at(t) for t in angles])
    assert np.max(np.abs(w - target)) < 1e-10


def _transfer_weight(params, grid_size):
    """1/|phi_K|^2 on the grid by K transfer steps at every node."""
    nodes = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    phi, _ = eval_grid_table(params, nodes, len(params))
    return 1.0 / np.abs(phi[-1]) ** 2


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


_THREE_ATOMS = {
    "name": "mixed",
    "base": {"name": "lebesgue"},
    "atoms": [{"angle": t, "mass": 0.1} for t in (0.0, 1.0, math.pi)],
}


@pytest.mark.parametrize(
    "case", ["bs_half", "geronimus9", "mixed_atom", "ragged", "three_atoms"]
)
def test_streamed_gram_matches_full_table(request, case):
    # the chunks change only the order of the Gram's sums; the atoms of
    # mixed_atom and three_atoms join the grid's last chunk, and 5000 nodes
    # end in a ragged chunk
    if case == "geronimus9":
        inst = build_family({"name": "geronimus", "a": 0.9}, 4096, 65)
    elif case == "three_atoms":
        inst = build_family(_THREE_ATOMS, 4096, 65)
    else:
        inst = request.getfixturevalue("ell2_half" if case == "ragged" else case)
    nodes, weights = inst.measure.quadrature()
    if case == "ragged":
        nodes, weights = nodes[:5000], weights[:5000]
        assert len(nodes) % opuc._GRAM_CHUNK
    streamed = opuc.gram_matrix(inst.params, nodes, weights, 16)
    full = gram_full_table(inst.params, nodes, weights, 16)
    assert np.max(np.abs(streamed - full)) < 1e-14


@pytest.mark.parametrize("case", ["bs_half", "mixed_atom", "three_atoms", "ell2_half"])
def test_gram_from_moments_matches_full_table(request, case):
    # P T P^H over the Taylor coefficients and the Toeplitz moments, atoms
    # included, is the quadrature's Gram matrix up to rounding
    if case == "three_atoms":
        inst = build_family(_THREE_ATOMS, 4096, 65)
    else:
        inst = request.getfixturevalue(case)
    mu = inst.measure
    got = opuc.gram_from_moments(inst.params, moments(mu, 16), 16)
    want = gram_full_table(inst.params, *mu.quadrature(), 16)
    assert np.max(np.abs(got - want)) < 1e-14


def test_gram_atoms_join_the_last_chunk(spy, ell2_half):
    # a remainder of only atoms rides in the last grid chunk instead of
    # taking a transfer pass of its own; a wider remainder keeps its chunk
    sizes = spy(lambda params, zs, n_max: len(zs), opuc, "_transfer_steps")
    inst = build_family(_THREE_ATOMS, 4096, 65)
    opuc.gram_matrix(inst.params, *inst.measure.quadrature(), 16)
    assert sizes == [2048, 2051]
    nodes, weights = ell2_half.measure.quadrature()
    sizes.clear()
    opuc.gram_matrix(ell2_half.params, nodes[:5000], weights[:5000], 16)
    assert sizes == [2048, 2048, 904]
    sizes.clear()
    opuc.gram_matrix(ell2_half.params, nodes, weights, 16)
    assert sizes == [2048] * 8


def test_gram_within_one_chunk_is_the_full_table(bs_half):
    nodes, weights = bs_half.measure.quadrature()
    nodes, weights = nodes[:1000], weights[:1000]
    assert np.array_equal(
        opuc.gram_matrix(bs_half.params, nodes, weights, 16),
        gram_full_table(bs_half.params, nodes, weights, 16),
    )


def test_gram_chunks_take_two_reused_buffers(geronimus6):
    # each chunk's rows and their weighted copy go into two buffers
    # allocated once, so the pass peaks at those two chunk arrays plus the
    # transfer recursion's few live rows, with no node-sized temporary per
    # chunk, and the nodes and weights it reads are left as they were
    nodes, weights = geronimus6.measure.quadrature()
    assert len(nodes) == 4097  # chunks of 2048 and 2049 nodes
    before = nodes.tobytes(), weights.tobytes()
    chunk_array = 17 * 2049 * 16
    tracemalloc.start()
    try:
        opuc.gram_matrix(geronimus6.params, nodes, weights, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * chunk_array, peak / chunk_array
    assert (nodes.tobytes(), weights.tobytes()) == before


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
