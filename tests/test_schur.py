"""Schur functions, the parameter cascade, and the entropy product."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuclab import schur
from opuclab.errors import (
    ContractivityLoss,
    DivisionBlowup,
    NearZeroArgument,
    NonNormalizable,
    OutOfRange,
    ParameterEscape,
)
from opuclab.families import FAMILIES
from opuclab.measure import CircleMeasure, moments
from opuclab.schur import (
    SERIES_GUARD,
    Fixed,
    SchurParameters,
    _cascade,
    _cascade_mp,
    entropy_product,
    fixed_bits,
    iterate_noise_horizon,
    khrushchev_rhs,
    schur_eval,
    schur_iterate_eval,
    schur_parameters_from_measure,
    schur_parameters_from_series,
    schur_sum_bound,
    szego_formula_residual,
)

from oracles import cascade_mp


def test_schur_function_is_constant_for_bernstein_szego(bs_half):
    for z in (0.0, 0.3, -0.5j, 0.7 + 0.2j):
        assert abs(schur_eval(bs_half.measure, z) - 0.5) < 1e-10


def test_cascade_recovers_single_parameter(bs_half):
    params = schur_parameters_from_measure(bs_half.measure, 64)
    assert abs(params[0] - 0.5) < 1e-10
    assert np.max(np.abs(params.values[1:])) < 1e-8


def test_measure_mass_must_be_one():
    # the cascade reads c_0 = 1 off the measure: CircleMeasure refuses any
    # other total mass
    with pytest.raises(NonNormalizable):
        CircleMeasure(4, np.full(4, 0.9))
    with pytest.raises(NonNormalizable):
        CircleMeasure(4, np.full(4, 0.9), ((1.0, 0.2),))


def test_cascade_escape_on_unimodular_start():
    # |f(0)| = 1 means the measure degenerates to a point mass
    u = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    v = np.array([1.0 + 0j, 0.0, 0.0, 0.0])
    with pytest.raises(ParameterEscape):
        schur_parameters_from_series(u, v, 3)


def test_series_pair_reads_the_moments():
    # moments (1/2)^k of bernstein_szego(1/2): u = c[1:], v = c[:-1] is
    # f = 1/2, whose parameters are 1/2, 0, 0, ...
    c = 0.5 ** np.arange(6)
    params = schur_parameters_from_series(c[1:], c[:-1], 4)
    assert np.max(np.abs(params.values - [0.5, 0.0, 0.0, 0.0])) < 1e-15


def test_series_pair_guards():
    c = 0.5 ** np.arange(6)
    with pytest.raises(OutOfRange):
        schur_parameters_from_series(c[1:], c[:-1], 5)  # order is 4
    with pytest.raises(OutOfRange):
        schur_parameters_from_series(c[1:], c[:-2], 2)
    with pytest.raises(DivisionBlowup):
        schur_parameters_from_series(c[1:], np.zeros(5), 2)


def test_cascade_precisions_agree(bs_half):
    c = moments(bs_half.measure, 64 + SERIES_GUARD)
    double, _, escape_step = _cascade(c[1:].tolist(), c[:-1].tolist(), 64)
    extended, _ = _cascade_mp(c[1:], c[:-1], 64, 40)
    assert escape_step is None
    assert np.max(np.abs(double - extended)) < 1e-13


def _series_of(params, length):
    """u, v with u/v the Schur function of parameters ``params`` then 0, 0, ...

    Inverse Schur steps f_k = (a_k + z f_{k+1}) / (1 + conj(a_k) z f_{k+1})
    from f_K = 0 = 0/1, on polynomials of degree at most K < length.
    """
    u = np.zeros(length, dtype=complex)
    v = np.zeros(length, dtype=complex)
    v[0] = 1.0
    for a in reversed(params):
        zu = np.concatenate([[0.0], u[:-1]])
        u, v = a * v + zu, v + np.conj(a) * zu
    return u, v


@contextlib.contextmanager
def _recorded_escalations():
    """Yields a list of (u, v, n_max, dps, params), one per fixed-point cascade."""
    calls = []
    exact = schur._cascade_mp

    def spy(u, v, n_max, dps):
        params, loss = exact(u, v, n_max, dps)
        calls.append((u, v, n_max, dps, params))
        return params, loss

    with mock.patch.object(schur, "_cascade_mp", spy):
        yield calls


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_escalated_cascade_matches_mpmath_bitwise(a):
    mu = FAMILIES["geronimus"].measure(4096, 65, a=a)
    with _recorded_escalations() as calls:
        params = schur_parameters_from_measure(mu, 64)
    [(u, v, n_max, dps, exact)] = calls
    assert np.array_equal(params.values, exact)
    assert np.array_equal(exact, cascade_mp(u, v, n_max, dps)[0])


@settings(max_examples=12, deadline=None)
@given(
    c=st.floats(0.7, 0.9),
    p=st.floats(0.4, 0.7),
    theta=st.floats(0.1, 3.0),
)
def test_escalated_cascade_matches_mpmath_on_slow_decay(c, p, theta):
    # a_k = c e^{i k theta} / (k+1)^p: 48 steps lose 5 to 14 digits, the
    # range of the builtin families (geronimus loses 11 to 15 by depth 64).
    # Fixed point holds each part of a parameter to 2^-P absolutely and
    # mpmath relative to that part, so a part at roundoff size (the
    # imaginary part of e^{i pi k}) can round to a neighbouring double,
    # though both are within about 1e-21 of exact; these phases keep both
    # parts of every parameter far from roundoff size.
    k = np.arange(48 + SERIES_GUARD)
    u, v = _series_of(c * np.exp(1j * theta * k) / (k + 1.0) ** p, len(k) + 1)
    with _recorded_escalations() as calls:
        schur_parameters_from_series(u, v, 48)
    assert calls
    for u, v, n_max, dps, exact in calls:
        assert np.array_equal(exact, cascade_mp(u, v, n_max, dps)[0])


def test_escaped_double_pass_escalates_past_the_double_range():
    # |a_3| is 1.1e-12 below 1: the double pass escapes there and the
    # fixed-point pass does not, at dps 25 + ceil(loss) + n_max, so 2^P
    # is beyond any double
    u, v = _series_of([0.95, 0.8, 0.95, 1.0 - 1.1e-12, 0.5], 300)
    assert _cascade(u.tolist(), v.tolist(), 299)[2] == 3
    with _recorded_escalations() as calls:
        params = schur_parameters_from_series(u, v, 299)
    [(_, _, _, dps, exact)] = calls
    assert fixed_bits(dps) > 1023
    assert np.array_equal(params.values, exact)
    assert np.array_equal(exact, cascade_mp(u, v, 299, dps)[0])


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_fixed_point_holds_every_double_exactly(x):
    # 2^-1074 is the least double, so past 1074 bits no input is floored
    assert complex(Fixed.of(x, fixed_bits(330))) == x


def test_szego_formula_exact_for_finite_parameter_families(leb, bs_half):
    assert szego_formula_residual(leb.measure, leb.params, 64) < 1e-10
    assert szego_formula_residual(bs_half.measure, bs_half.params, 64) < 1e-10


def test_entropy_product_closed_form(bs_half):
    # single parameter r: K(mu, z) = log((1 - r^2 |z|^2)/(1 - r^2))
    for z in (0.0, 0.3, 0.5, 0.8j):
        expected = math.log((1.0 - 0.25 * abs(z) ** 2) / 0.75)
        f0 = schur_eval(bs_half.measure, z)
        got = entropy_product(bs_half.params, z, f0, 8)
        assert abs(got - expected) < 1e-10


def test_sum_bound_is_equality_for_one_parameter(bs_half):
    from opuclab.szego import entropy

    for z in (0.0, 0.4j, 0.6):
        f0 = schur_eval(bs_half.measure, z)
        # the quadrature entropy is the robust right side; the default
        # full-depth product would iterate far past the noise horizon on
        # these measure-extracted parameters
        lhs, rhs = schur_sum_bound(
            bs_half.params, z, f0, 8,
            entropy_value=entropy(bs_half.measure, z),
        )
        # closed form (1 - |z|^2) r^2 / (1 - r^2) on both sides
        expected = (1.0 - abs(z) ** 2) * 0.25 / 0.75
        assert abs(lhs - expected) < 1e-10
        assert abs(lhs - rhs) < 1e-10


def test_sum_bound_never_exceeds_entropy_side(geronimus6):
    from opuclab.szego import entropy

    mu = geronimus6.measure
    for z in (0.0, 0.5, -0.6j):
        f0 = schur_eval(mu, z)
        n = 16 if z else 64
        lhs, rhs = schur_sum_bound(
            geronimus6.params, z, f0, n, entropy_value=entropy(mu, z)
        )
        assert lhs <= rhs + 1e-10


def test_khrushchev_rhs_against_poisson_quadrature(bs_half):
    from opuclab.measure import weighted_poisson
    from opuclab.opuc import eval_grid_pair

    mu = bs_half.measure
    for n, z in ((2, 0.5), (6, 0.5 - 0.4j), (16, 0.8j)):
        f0 = schur_eval(mu, z)
        rhs = khrushchev_rhs(bs_half.params, z, f0, n)
        _, phis = eval_grid_pair(bs_half.params, mu.boundary_points, n)
        lhs = weighted_poisson(mu, np.abs(phis) ** 2, z)
        assert abs(lhs - rhs) < 1e-6


def test_khrushchev_rhs_edge_cases(bs_half):
    assert khrushchev_rhs(bs_half.params, 0.0, 0.5, 4) == 1.0
    with pytest.raises(OutOfRange):
        khrushchev_rhs(bs_half.params, 1.0 + 0j, 0.5, 4)
    with pytest.raises(NearZeroArgument):
        khrushchev_rhs(bs_half.params, 1e-5, 0.5, 4)


def test_iterate_rejects_expansion(bs_half):
    with pytest.raises(ContractivityLoss):
        schur_iterate_eval(bs_half.params, 1.5 + 0j, 0.5, 2)


def test_iterate_depth_capped_by_storage():
    params = SchurParameters(np.array([0.5 + 0j]))
    with pytest.raises(OutOfRange):
        schur_iterate_eval(params, 0.5 + 0j, 0.5, 5)


def test_noise_horizon_values():
    assert iterate_noise_horizon(0.5) == 16
    assert iterate_noise_horizon(0.9) == 109
    assert iterate_noise_horizon(0.97) == 10_000


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.05, max_value=0.8),
    mag=st.floats(min_value=0.05, max_value=0.85),
    arg=st.floats(min_value=0.0, max_value=6.283),
)
def test_iterates_stay_contractive(r, mag, arg):
    # the supplied starting value must belong to the parameter sequence:
    # f identically r pairs with (r, 0, 0, ...), and the constant sequence
    # (r, r, ...) pairs with the fixed point of the parameter shift
    from opuclab.families import _geronimus_schur_value

    z = mag * complex(np.exp(1j * arg))
    depth = min(8, iterate_noise_horizon(z))

    one_shot = np.zeros(8, dtype=complex)
    one_shot[0] = r
    params = SchurParameters(one_shot)
    for k in range(depth + 1):
        assert abs(schur_iterate_eval(params, complex(r), z, k)) < 1.0

    constant = SchurParameters(np.full(8, r, dtype=complex))
    fixed = _geronimus_schur_value(r, z)
    for k in range(depth + 1):
        value = schur_iterate_eval(constant, fixed, z, k)
        assert abs(value) < 1.0
        # the shift maps the fixed point to itself
        assert abs(value - fixed) < 1e-7 * (1.0 / mag) ** k
